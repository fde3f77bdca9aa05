package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"

	twoknn "repro"
	"repro/internal/server"
)

// This file is the answer check: a seeded sample of each shape's responses
// in each stage of the run is compared, canonically sorted, with direct
// in-process twoknn calls on the same points, rendered with the same
// stable-ID rule as the server (the smallest live ID among co-located
// points).

// relation is one dataset's in-process copy: the engine relation plus the
// server's render rule, coordinates to the smallest live stable ID.
type relation struct {
	rel  *twoknn.Relation
	idOf map[twoknn.Point]int32
}

func newRelation(name string, pts []twoknn.Point, ids []int32) (*relation, error) {
	rel, err := twoknn.NewRelation(name, pts, twoknn.WithIndexKind(twoknn.GridIndex))
	if err != nil {
		return nil, err
	}
	if ids == nil {
		ids = make([]int32, len(pts))
		for i := range ids {
			ids[i] = int32(i)
		}
	}
	idOf := make(map[twoknn.Point]int32, len(pts))
	for i, p := range pts {
		if old, ok := idOf[p]; !ok || ids[i] < old {
			idOf[p] = ids[i]
		}
	}
	return &relation{rel: rel, idOf: idOf}, nil
}

func (r *relation) row(p twoknn.Point) server.PointRow {
	id, ok := r.idOf[p]
	if !ok {
		id = -1
	}
	return server.PointRow{ID: id, X: p.X, Y: p.Y}
}

func (r *relation) rows(pts []twoknn.Point) []server.PointRow {
	out := make([]server.PointRow, len(pts))
	for i, p := range pts {
		out[i] = r.row(p)
	}
	return out
}

// expect computes the response a read request must get against rels.
func expect(w *workload, rels map[string]*relation, r *request) (server.QueryResponse, error) {
	var resp server.QueryResponse
	pairs := func(ps []twoknn.Pair, err error) error {
		if err != nil {
			return err
		}
		o, in := rels[w.outer], rels[w.inner]
		resp.Pairs = make([]server.PairRow, len(ps))
		for i, p := range ps {
			resp.Pairs[i] = server.PairRow{Left: o.row(p.Left), Right: in.row(p.Right)}
		}
		resp.Count = len(ps)
		return nil
	}
	sel := rels[w.sel]
	var err error
	switch r.kind {
	case kSelect, kTwo:
		var pts []twoknn.Point
		if r.kind == kSelect {
			pts, err = twoknn.KNNSelect(sel.rel, r.f, selectK)
		} else {
			pts, err = twoknn.TwoSelects(sel.rel, r.f, twoK, r.f2, twoK)
		}
		resp.Points = sel.rows(pts)
		resp.Count = len(pts)
	case kBatch, kBatchLarge:
		var res [][]twoknn.Point
		res, err = twoknn.KNNSelectBatch(sel.rel, r.focals, selectK)
		for _, pts := range res {
			resp.Batches = append(resp.Batches, sel.rows(pts))
			resp.Count += len(pts)
		}
	case kJoin:
		err = pairs(twoknn.KNNJoin(rels[w.outer].rel, rels[w.inner].rel, joinK))
	case kInnerJoin:
		err = pairs(twoknn.SelectInnerJoin(rels[w.outer].rel, rels[w.inner].rel, r.f, joinK, joinKSel))
	case kOuterJoin:
		err = pairs(twoknn.SelectOuterJoin(rels[w.outer].rel, rels[w.inner].rel, r.f, joinKSel, joinK))
	default:
		err = fmt.Errorf("no reference for %s", r.kind)
	}
	return resp, err
}

// canonical sorts every row list of resp so that comparisons ignore the
// order rows were emitted in.
func canonical(resp *server.QueryResponse) {
	cmpRow := func(a, b server.PointRow) int {
		if a.ID != b.ID {
			return int(a.ID - b.ID)
		}
		if a.X != b.X {
			if a.X < b.X {
				return -1
			}
			return 1
		}
		if a.Y < b.Y {
			return -1
		} else if a.Y > b.Y {
			return 1
		}
		return 0
	}
	slices.SortFunc(resp.Points, cmpRow)
	for _, b := range resp.Batches {
		slices.SortFunc(b, cmpRow)
	}
	slices.SortFunc(resp.Pairs, func(a, b server.PairRow) int {
		if c := cmpRow(a.Left, b.Left); c != 0 {
			return c
		}
		return cmpRow(a.Right, b.Right)
	})
}

// sameAnswer compares a served body with the expected response.
func sameAnswer(body []byte, want server.QueryResponse) (bool, error) {
	var got server.QueryResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return false, fmt.Errorf("decoding response: %w", err)
	}
	canonical(&got)
	canonical(&want)
	if got.Count != want.Count || len(got.Batches) != len(want.Batches) {
		return false, nil
	}
	for i := range got.Batches {
		if !slices.Equal(got.Batches[i], want.Batches[i]) {
			return false, nil
		}
	}
	return slices.Equal(got.Points, want.Points) && slices.Equal(got.Pairs, want.Pairs), nil
}

// sample is one kept response awaiting the answer check.
type sample struct {
	r    *request
	body []byte
}

// reservoir is a uniform sample of up to a cap of one kind's responses in
// one stage of the run.
type reservoir struct {
	seen int
	kept []sample
}

// checker keeps a seeded reservoir sample of the read responses of each
// kind in each stage of the run (warm-up, fixed-rate, saturation), so the
// answer check covers the whole run at a bounded cost. It validates write
// acknowledgements inline, and tracks the written dataset's live set for
// the read-write checkpoints.
type checker struct {
	keepReads bool
	// inject corrupts the first verified sample, so tests can prove a wrong
	// answer is counted.
	inject bool

	mu sync.Mutex
	// rng picks the reservoir replacements; seeded from the run's seed.
	rng   *rand.Rand
	stage string
	// stages lists the stages in the order their first read was sampled;
	// pools holds their reservoirs by stage, then by kind.
	stages []string
	pools  map[string]map[string]*reservoir
	// checked and wrong count verified samples and mismatches.
	checked, wrong int
	// inserted and removed are the acknowledged writes.
	inserted map[int32]twoknn.Point
	removed  map[int32]bool
}

// sampleCap bounds kept samples per kind and stage; the join references are
// the expensive ones to recompute.
func sampleCap(kind string) int {
	switch kind {
	case kJoin:
		return 1
	case kInnerJoin, kOuterJoin:
		return 3
	default:
		return 8
	}
}

func newChecker(seed uint64, keepReads, inject bool) *checker {
	return &checker{
		keepReads: keepReads, inject: inject, rng: rand.New(rand.NewPCG(seed, 0x5eed)),
		pools: make(map[string]map[string]*reservoir), inserted: make(map[int32]twoknn.Point), removed: make(map[int32]bool),
	}
}

// begin starts a new stage: reads observed from now on are sampled apart
// from those of earlier stages.
func (c *checker) begin(stage string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stage = stage
}

// observe sees every completed request's body and reports whether the
// response is right as far as it can tell inline: writes are checked here,
// and reads are offered to the reservoir of their kind and stage.
func (c *checker) observe(r *request, body []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch r.kind {
	case kInsert:
		var m server.MutateResponse
		if json.Unmarshal(body, &m) != nil || len(m.IDs) != len(r.pts) {
			return false
		}
		for i, id := range m.IDs {
			c.inserted[id] = r.pts[i]
		}
		return true
	case kRemove:
		var m server.MutateResponse
		if json.Unmarshal(body, &m) != nil || m.Removed != len(r.ids) {
			return false
		}
		for _, id := range r.ids {
			c.removed[id] = true
		}
		return true
	}
	if !c.keepReads {
		return true
	}
	pool := c.pools[c.stage]
	if pool == nil {
		c.stages = append(c.stages, c.stage)
		pool = make(map[string]*reservoir)
		c.pools[c.stage] = pool
	}
	res := pool[r.kind]
	if res == nil {
		res = &reservoir{}
		pool[r.kind] = res
	}
	res.seen++
	keep := sample{r: r}
	if n := sampleCap(r.kind); len(res.kept) < n {
		keep.body = append([]byte(nil), body...)
		res.kept = append(res.kept, keep)
	} else if j := c.rng.IntN(res.seen); j < n {
		keep.body = append([]byte(nil), body...)
		res.kept[j] = keep
	}
	return true
}

// samples returns the kept read samples and how many were kept per stage,
// stage by stage and kind by kind.
func (c *checker) samples() ([]sample, map[string]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []sample
	perStage := map[string]int{}
	for _, stage := range c.stages {
		pool := c.pools[stage]
		for _, kind := range sortedKeys(pool) {
			out = append(out, pool[kind].kept...)
			perStage[stage] += len(pool[kind].kept)
		}
	}
	return out, perStage
}

// verify checks samples against rels, counting mismatches on c; the
// reference of the knn-join, whose requests are all identical, is reused.
// It runs after the load has stopped.
func (c *checker) verify(w *workload, rels map[string]*relation, samples []sample) error {
	var joinRef *server.QueryResponse
	for _, s := range samples {
		var want server.QueryResponse
		if s.r.kind == kJoin && joinRef != nil {
			want = *joinRef
		} else {
			var err error
			want, err = expect(w, rels, s.r)
			if err != nil {
				return err
			}
			if s.r.kind == kJoin {
				joinRef = &want
			}
		}
		body := s.body
		if c.inject {
			c.inject = false
			body = corrupt(body)
		}
		ok, err := sameAnswer(body, want)
		if err != nil {
			return err
		}
		c.checked++
		if !ok {
			c.wrong++
		}
	}
	return nil
}

// corrupt returns body with its first result row moved by one unit.
func corrupt(body []byte) []byte {
	var resp server.QueryResponse
	if json.Unmarshal(body, &resp) != nil {
		return body
	}
	switch {
	case len(resp.Points) > 0:
		resp.Points[0].X++
	case len(resp.Pairs) > 0:
		resp.Pairs[0].Right.X++
	case len(resp.Batches) > 0 && len(resp.Batches[0]) > 0:
		resp.Batches[0][0].X++
	default:
		resp.Count++
	}
	out, _ := json.Marshal(resp)
	return out
}

// live returns the written dataset's acknowledged live set: base points
// minus removed IDs plus inserted points, with their stable IDs.
func (c *checker) live(base []twoknn.Point) ([]twoknn.Point, []int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pts := make([]twoknn.Point, 0, len(base)+len(c.inserted))
	ids := make([]int32, 0, cap(pts))
	for i, p := range base {
		if !c.removed[int32(i)] {
			pts = append(pts, p)
			ids = append(ids, int32(i))
		}
	}
	ins := make([]int32, 0, len(c.inserted))
	for id := range c.inserted {
		ins = append(ins, id)
	}
	slices.Sort(ins)
	for _, id := range ins {
		if !c.removed[id] {
			pts = append(pts, c.inserted[id])
			ids = append(ids, id)
		}
	}
	return pts, ids
}

package remote

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/index/grid"
	"repro/internal/locality"
	"repro/internal/shard"
	"repro/internal/stats"
)

// tightBuild indexes each shard over its own extent, so shard MINDISTs
// differ and the coordinator's skip rule fires.
func tightBuild(st *geom.PointStore) (index.Index, error) {
	if st.Len() == 0 {
		return grid.NewFromStore(st, grid.Options{TargetPerCell: 16, Bounds: testBounds})
	}
	return grid.NewFromStore(st, grid.Options{TargetPerCell: 16})
}

// splitLayout partitions pts into an in-process sharded relation and one
// ShardServer per shard over the very same shard relations, so remote and
// in-process runs differ only in the transport.
func splitLayout(t *testing.T, pts []geom.Point, shards int, policy shard.Policy) (*shard.Relation, []*ShardServer) {
	t.Helper()
	rel, err := shard.New(pts, shards, policy, 0, tightBuild)
	if err != nil {
		t.Fatal(err)
	}
	srvs := make([]*ShardServer, shards)
	for s := range srvs {
		srvs[s] = NewShardServer(rel.Shard(s), ShardServerConfig{Name: "batch", Shard: s, Shards: shards, Index: "grid"})
	}
	return rel, srvs
}

// dialGroup dials transports[s] as shard s's replicas and returns the
// group with its members.
func dialGroup(t *testing.T, transports [][]ShardTransport, opts Options) (shard.Group, []*Member) {
	t.Helper()
	members, err := Dial(context.Background(), transports, opts)
	if err != nil {
		t.Fatal(err)
	}
	return NewGroup(members, nil), members
}

// loopbacks wraps every server in one loopback transport.
func loopbacks(srvs []*ShardServer) [][]ShardTransport {
	out := make([][]ShardTransport, len(srvs))
	for s, srv := range srvs {
		out[s] = []ShardTransport{NewLoopback(srv, fmt.Sprintf("loop://batch/%d", s))}
	}
	return out
}

// attempts sums the envelope attempts of every member's replicas.
func attempts(members []*Member) int64 {
	n := int64(0)
	for _, m := range members {
		for _, ep := range m.NetStats().Endpoints {
			n += ep.Attempts
		}
	}
	return n
}

func localOuter(t *testing.T, n int, seed int64) *core.Relation {
	t.Helper()
	return testRelation(t, testPoints(n, seed))
}

// TestRemoteJoinProbeCount checks a remote join coalesces its probes: a
// local outer of U grid blocks against S spatial shards costs at most one
// envelope attempt per shard per round per block, U·S·S in all, where the
// per-tuple protocol made at least one per outer point.
func TestRemoteJoinProbeCount(t *testing.T) {
	const shards = 3
	_, srvs := splitLayout(t, testPoints(3000, 30), shards, shard.PolicySpatial)
	opts := fastOpts()
	opts.HedgeAfter = NoHedging
	g, members := dialGroup(t, loopbacks(srvs), opts)
	outer := localOuter(t, 400, 31)

	before := attempts(members)
	pairs := shard.Join(context.Background(), shard.SingleGroup(outer), g, 5, 2, nil)
	got := attempts(members) - before

	u := int64(len(outer.Ix.Blocks()))
	if got > u*shards*shards {
		t.Fatalf("remote join made %d envelope attempts, want at most U·S·S = %d·%d·%d = %d",
			got, u, shards, shards, u*shards*shards)
	}
	t.Logf("%d envelope attempts for %d outer points in %d blocks", got, outer.Len(), u)
	if got >= int64(outer.Len()) {
		t.Fatalf("remote join made %d envelope attempts for %d outer points: probes are not coalesced", got, outer.Len())
	}
	if len(pairs) != 5*outer.Len() {
		t.Fatalf("join returned %d pairs, want %d", len(pairs), 5*outer.Len())
	}
}

// TestRemoteSelectOuterJoinSequentialProbeCount checks that a sequential
// scatter (workers 0, the public default) runs as one unit: the kSel
// selected points of a select-outer-join against S hash shards cost at
// most one envelope attempt per shard per round, S·S in all. Cutting the
// selected points into per-CPU chunks multiplies that by the chunk count.
func TestRemoteSelectOuterJoinSequentialProbeCount(t *testing.T) {
	const shards, kSel, kJoin = 2, 64, 5
	_, srvs := splitLayout(t, testPoints(3000, 34), shards, shard.PolicyHash)
	opts := fastOpts()
	opts.HedgeAfter = NoHedging
	g, members := dialGroup(t, loopbacks(srvs), opts)
	outer := shard.SingleGroup(localOuter(t, 400, 35))

	before := attempts(members)
	pairs := shard.SelectOuterJoin(context.Background(), outer, g, geom.Point{X: 500, Y: 500}, kSel, kJoin, 0, nil)
	got := attempts(members) - before

	if got > shards*shards {
		t.Fatalf("sequential remote select-outer-join made %d envelope attempts, want at most S·S = %d",
			got, shards*shards)
	}
	if len(pairs) != kSel*kJoin {
		t.Fatalf("select-outer-join returned %d pairs, want %d", len(pairs), kSel*kJoin)
	}
}

// TestRemoteBatchKeepsSkipRule holds the batched remote joins to the
// per-tuple probe set: the shards compute exactly as many neighborhoods as
// the in-process sharded run of the same join, and return the same pairs.
func TestRemoteBatchKeepsSkipRule(t *testing.T) {
	for _, policy := range []shard.Policy{shard.PolicySpatial, shard.PolicyHash} {
		t.Run(policy.String(), func(t *testing.T) {
			rel, srvs := splitLayout(t, testPoints(2500, 32), 3, policy)
			g, _ := dialGroup(t, loopbacks(srvs), fastOpts())
			outer := shard.SingleGroup(localOuter(t, 300, 33))
			ctx := context.Background()
			f := geom.Point{X: 420, Y: 610}

			runs := map[string]func(inner shard.Group, c *stats.Counters) []core.Pair{
				"KNNJoin": func(inner shard.Group, c *stats.Counters) []core.Pair {
					return shard.Join(ctx, outer, inner, 4, 2, c)
				},
				"SelectOuterJoin": func(inner shard.Group, c *stats.Counters) []core.Pair {
					return shard.SelectOuterJoin(ctx, outer, inner, f, 60, 4, 2, c)
				},
			}
			for name, run := range runs {
				var inproc, wire stats.Counters
				want := run(rel.Group(), &inproc)
				got := run(g, &wire)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: remote pairs differ from in-process (%d vs %d)", name, len(got), len(want))
				}
				if wire.Neighborhoods != inproc.Neighborhoods {
					t.Fatalf("%s: remote run computed %d neighborhoods, in-process sharded %d",
						name, wire.Neighborhoods, inproc.Neighborhoods)
				}
			}
		})
	}
}

// TestRemoteBatchCorruptFailsOver corrupts every batch response of each
// shard's primary into ragged arrays: validation rejects them, the envelope
// fails over to the replica, and the join stays byte-identical.
func TestRemoteBatchCorruptFailsOver(t *testing.T) {
	rel, srvs := splitLayout(t, testPoints(2000, 34), 2, shard.PolicySpatial)
	tps := make([][]ShardTransport, len(srvs))
	for s, srv := range srvs {
		tps[s] = []ShardTransport{
			&corruptingTransport{ShardTransport: NewLoopback(srv, fmt.Sprintf("loop://bad/%d", s))},
			NewLoopback(srv, fmt.Sprintf("loop://good/%d", s)),
		}
	}
	opts := fastOpts()
	opts.MaxRetries = NoRetries
	g, members := dialGroup(t, tps, opts)
	outer := shard.SingleGroup(localOuter(t, 250, 35))

	want := shard.Join(context.Background(), outer, rel.Group(), 6, 1, nil)
	got := shard.Join(context.Background(), outer, g, 6, 1, nil)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("join under ragged batch responses differs (%d vs %d pairs)", len(got), len(want))
	}
	failovers := int64(0)
	for _, m := range members {
		failovers += m.NetStats().Failovers
	}
	if failovers == 0 {
		t.Fatal("ragged batch responses did not fail over")
	}
}

// corruptingTransport answers every batch probe with a ragged response.
type corruptingTransport struct{ ShardTransport }

func (c *corruptingTransport) ProbeBatch(ctx context.Context, req *BatchProbeRequest, resp *BatchProbeResponse) error {
	if err := c.ShardTransport.ProbeBatch(ctx, req, resp); err != nil {
		return err
	}
	resp.DSqs = append(resp.DSqs, 1)
	return nil
}

// TestRemoteBatchPartialMissing kills one shard of a remote inner under a
// partial-results collector: the batched join records exactly that shard
// missing, without a panic, and answers exactly over the other shard.
func TestRemoteBatchPartialMissing(t *testing.T) {
	pts := testPoints(1500, 36)
	rel, srvs := splitLayout(t, pts, 2, shard.PolicySpatial)
	dead := &fakeTransport{name: "fake://dead/1", inner: NewLoopback(srvs[1], "")}
	tps := [][]ShardTransport{{NewLoopback(srvs[0], "")}, {dead}}
	opts := fastOpts()
	opts.MaxRetries = NoRetries
	opts.HedgeAfter = NoHedging
	g, _ := dialGroup(t, tps, opts)
	dead.failures.Store(-1) // after dial: every probe of shard 1 fails

	outer := shard.SingleGroup(localOuter(t, 200, 37))
	coll := NewCollector()
	ctx := WithCollector(context.Background(), coll)
	got := shard.Join(ctx, outer, g, 4, 2, nil)
	if m := coll.Missing(); !reflect.DeepEqual(m, []int{1}) {
		t.Fatalf("Missing() = %v, want [1]", m)
	}
	if !errors.Is(coll.Errors()[1], ErrUnavailable) {
		t.Fatalf("shard 1's recorded error = %v, want ErrUnavailable", coll.Errors()[1])
	}
	want := shard.Join(context.Background(), outer, shard.SingleGroup(rel.Shard(0)), 4, 1, nil)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("partial join differs from the join over the live shard (%d vs %d pairs)", len(got), len(want))
	}
}

// TestProbeBatchMatchesLocal checks the batch route against the shard's own
// searcher over loopback and HTTP, in both modes: every span byte-identical
// to the single probe, the offsets one per focal.
func TestProbeBatchMatchesLocal(t *testing.T) {
	rel := testRelation(t, testPoints(600, 38))
	srv := NewShardServer(rel, ShardServerConfig{Name: "test"})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	h := rel.Acquire()
	defer h.Release()

	focals := testPoints(70, 39)
	req := &BatchProbeRequest{K: 7}
	for _, f := range focals {
		req.Xs = append(req.Xs, f.X)
		req.Ys = append(req.Ys, f.Y)
	}
	thresholds := make([]float64, len(focals))
	for i := range thresholds {
		thresholds[i] = float64(i*i*20) - 500
	}
	for _, tr := range []ShardTransport{NewLoopback(srv, ""), NewHTTPTransport(ts.URL, nil)} {
		for _, thr := range [][]float64{nil, thresholds} {
			req.ThresholdsSq = thr
			var resp BatchProbeResponse
			if err := tr.ProbeBatch(context.Background(), req, &resp); err != nil {
				t.Fatalf("%s: %v", tr.Endpoint(), err)
			}
			if err := resp.validate(len(focals)); err != nil {
				t.Fatalf("%s: invalid batch response: %v", tr.Endpoint(), err)
			}
			var spans shard.Spans
			resp.appendSpans(&spans)
			for i, f := range focals {
				var want *locality.Neighborhood
				if thr == nil {
					want = h.S.Neighborhood(f, req.K, nil)
				} else {
					want = h.S.NeighborhoodWithinSq(f, req.K, thr[i], nil)
				}
				pts, dists := spans.Span(i)
				if len(want.Points) == 0 && len(pts) == 0 {
					continue
				}
				if !reflect.DeepEqual(want.Points, pts) || !reflect.DeepEqual(want.Dists, dists) {
					t.Fatalf("%s thresholds=%v focal %d: batch span not byte-identical", tr.Endpoint(), thr != nil, i)
				}
			}
		}
	}
}

// TestShardServerBatchRejects covers the batch route's request validation:
// each malformed request is a 400 over HTTP and a fatal (never retried)
// error over loopback.
func TestShardServerBatchRejects(t *testing.T) {
	srv := NewShardServer(testRelation(t, testPoints(100, 40)), ShardServerConfig{Name: "test"})
	lb := NewLoopback(srv, "")
	tooMany := make([]float64, maxBatchFocals+1)
	// At k ≥ n every focal returns all 100 points: the candidate cap
	// admits batchFocalLimit(1000, 100) = 327 focals, not 512.
	overCands := make([]float64, maxBatchCandidates/100+1)
	for name, req := range map[string]*BatchProbeRequest{
		"k=0":             {Xs: []float64{1}, Ys: []float64{1}, K: 0},
		"k<0":             {Xs: []float64{1}, Ys: []float64{1}, K: -3},
		"ragged":          {Xs: []float64{1, 2}, Ys: []float64{1}, K: 2},
		"thresholds-len":  {Xs: []float64{1, 2}, Ys: []float64{1, 2}, K: 2, ThresholdsSq: []float64{4}},
		"nan-threshold":   {Xs: []float64{1}, Ys: []float64{1}, K: 2, ThresholdsSq: []float64{math.NaN()}},
		"over-focals-cap": {Xs: tooMany, Ys: tooMany, K: 1},
		"over-cands-cap":  {Xs: overCands, Ys: overCands, K: 1000},
	} {
		var resp BatchProbeResponse
		err := lb.ProbeBatch(context.Background(), req, &resp)
		if err == nil || isTransient(err) {
			t.Errorf("%s: loopback err = %v, want a fatal rejection", name, err)
		}
	}

	zeros := strings.TrimSuffix(strings.Repeat("0,", len(overCands)), ",")
	for name, body := range map[string]string{
		"over-cands-cap": `{"xs":[` + zeros + `],"ys":[` + zeros + `],"k":1000}`,
		"k=0":            `{"xs":[1],"ys":[1],"k":0}`,
		"ragged":         `{"xs":[1,2],"ys":[1],"k":2}`,
		"thresholds-len": `{"xs":[1,2],"ys":[1,2],"k":2,"thresholds_sq":[]}`,
		"unknown-field":  `{"xs":[1],"ys":[1],"k":2,"x":1}`,
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, pathPrefix+"/neighborhood-batch", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
	}

	// A request that is valid but for its size: every probe route stops
	// reading at maxRequestBytes.
	pad := strings.Repeat(" ", maxRequestBytes)
	for _, tc := range []struct {
		op   Op
		body string
	}{
		{OpNeighborhood, `{"x":1,"y":1,"k":1` + pad + `}`},
		{OpBatch, `{"xs":[1],"ys":[1],"k":1` + pad + `}`},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, pathPrefix+"/"+tc.op.String(), strings.NewReader(tc.body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: oversized body answered %d, want 400", tc.op, rec.Code)
		}
	}
}

// TestRemoteBatchLargeK runs batches and a join whose k exceeds every
// shard's size: the coordinator splits each round's focals into chunks the
// shard's candidate cap admits, no response exceeds the cap, and the
// answers match the in-process sharded run.
func TestRemoteBatchLargeK(t *testing.T) {
	const k = 1000
	rel, srvs := splitLayout(t, testPoints(1500, 43), 3, shard.PolicyHash)
	tps := loopbacks(srvs)
	recs := make([]*recordingTransport, len(tps))
	for s := range tps {
		recs[s] = &recordingTransport{ShardTransport: tps[s][0]}
		tps[s][0] = recs[s]
	}
	g, _ := dialGroup(t, tps, fastOpts())
	ctx := context.Background()
	focals := testPoints(300, 44)

	want := shard.SelectBatch(ctx, rel.Group(), focals, k, nil)
	got := shard.SelectBatch(ctx, g, focals, k, nil)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("large-k remote batch differs from in-process")
	}
	outer := shard.SingleGroup(localOuter(t, 200, 45))
	if !reflect.DeepEqual(shard.Join(ctx, outer, rel.Group(), k, 2, nil), shard.Join(ctx, outer, g, k, 2, nil)) {
		t.Fatal("large-k remote join differs from in-process")
	}
	for s, rec := range recs {
		if limit := batchFocalLimit(k, srvs[s].Relation().Len()); rec.maxFocals.Load() != int64(limit) {
			t.Errorf("shard %d: largest batch carried %d focals, want full chunks of %d", s, rec.maxFocals.Load(), limit)
		}
		if c := rec.maxCands.Load(); c == 0 || c > maxBatchCandidates {
			t.Errorf("shard %d: largest batch response held %d candidates, want 1..%d", s, c, maxBatchCandidates)
		}
	}
}

// recordingTransport records the largest batch request and response it
// carried.
type recordingTransport struct {
	ShardTransport
	maxFocals, maxCands atomic.Int64
}

func (r *recordingTransport) ProbeBatch(ctx context.Context, req *BatchProbeRequest, resp *BatchProbeResponse) error {
	err := r.ShardTransport.ProbeBatch(ctx, req, resp)
	storeMax(&r.maxFocals, int64(len(req.Xs)))
	storeMax(&r.maxCands, int64(len(resp.IDs)))
	return err
}

func storeMax(v *atomic.Int64, x int64) {
	for {
		old := v.Load()
		if x <= old || v.CompareAndSwap(old, x) {
			return
		}
	}
}

// TestBatchResponseValidate covers the coordinator-side offset contract:
// every broken shape is rejected before the span rebuild can index out of
// range.
func TestBatchResponseValidate(t *testing.T) {
	cands := Candidates{IDs: []int32{1, 2, 3}, Xs: []float64{1, 2, 3}, Ys: []float64{1, 2, 3}, DSqs: []float64{1, 2, 3}}
	for name, tc := range map[string]struct {
		off    []int
		focals int
		ok     bool
	}{
		"valid":           {off: []int{0, 1, 3}, focals: 2, ok: true},
		"valid-empty-mid": {off: []int{0, 0, 3, 3}, focals: 3, ok: true},
		"nonzero-start":   {off: []int{1, 3}, focals: 1},
		"decreasing":      {off: []int{0, 2, 1, 3}, focals: 3},
		"short-end":       {off: []int{0, 1, 2}, focals: 2},
		"past-end":        {off: []int{0, 1, 4}, focals: 2},
		"too-few-offsets": {off: []int{0, 3}, focals: 2},
		"too-many":        {off: []int{0, 1, 2, 3}, focals: 2},
		"no-offsets":      {off: nil, focals: 0},
	} {
		r := BatchProbeResponse{Candidates: cands, Off: tc.off}
		if err := r.validate(tc.focals); (err == nil) != tc.ok {
			t.Errorf("%s: validate = %v, want ok=%v", name, err, tc.ok)
		}
	}
	ragged := BatchProbeResponse{Candidates: cands, Off: []int{0, 3}}
	ragged.Ys = ragged.Ys[:2]
	if err := ragged.validate(1); err == nil {
		t.Error("ragged candidate arrays passed validation")
	}
}

// TestShardMetricsBatch checks knnshard's /metrics lists the batch route
// and the focals it carried.
func TestShardMetricsBatch(t *testing.T) {
	srv := NewShardServer(testRelation(t, testPoints(100, 41)), ShardServerConfig{Name: "test"})
	var resp BatchProbeResponse
	req := &BatchProbeRequest{Xs: []float64{1, 2, 3}, Ys: []float64{1, 2, 3}, K: 2}
	if err := NewLoopback(srv, "").ProbeBatch(context.Background(), req, &resp); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{`"neighborhood-batch":1`, `"batch_focals":3`} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %s: %s", want, body)
		}
	}
}

// TestCorruptBatchIsRetried injects one corrupted batch response through the
// fault hook: validation rejects it as transient and the retry recovers.
func TestCorruptBatchIsRetried(t *testing.T) {
	srv := NewShardServer(testRelation(t, testPoints(200, 42)), ShardServerConfig{Name: "test"})
	rs := NewReplicaSet(0, []ShardTransport{NewLoopback(srv, "loop://corrupt")}, fastOpts())

	var fired atomic.Bool
	fault.Arm(&fault.Injector{CorruptResponse: func(ep string) bool {
		return ep == "loop://corrupt" && fired.CompareAndSwap(false, true)
	}})
	defer fault.Disarm()

	req := &BatchProbeRequest{Xs: []float64{9, 500}, Ys: []float64{9, 500}, K: 4}
	resp, err := rs.ProbeBatch(context.Background(), req)
	if err != nil {
		t.Fatalf("batch probe after one corrupted response: %v", err)
	}
	if err := resp.validate(len(req.Xs)); err != nil {
		t.Fatalf("final response invalid: %v", err)
	}
	if rs.NetStats().Endpoints[0].Retries == 0 {
		t.Fatal("corrupted batch response was not retried")
	}
}

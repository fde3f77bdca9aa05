package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sync"

	twoknn "repro"
	"repro/internal/dataload"
	"repro/internal/pointio"
	"repro/internal/server"
)

// A dataset is one generated CSV point file. Datasets are fixed: their
// generator seeds are constants, so every run of every seed serves the same
// data and only the request streams follow --seed. They are written once per
// checkout, before any served process starts, so generation is never charged
// to setup_s.
type dataset struct {
	file string
	spec dataload.Spec
}

var (
	// berlin is the paper's data: a BerlinMOD-substitute traffic snapshot.
	berlin = dataset{"berlinmod-n100000-s1.csv", dataload.Spec{Kind: dataload.BerlinMOD, N: 100000, Seed: 1}}
	// joinOuter × joinInner is the skewed join: a uniform outer against 8
	// tight clusters, where grid ring iteration crosses many empty cells.
	joinOuter = dataset{"uniform-n2000-s12.csv", dataload.Spec{Kind: dataload.Uniform, N: 2000, Seed: 12}}
	joinInner = dataset{"clustered-c8-p25000-r300-s13.csv", dataload.Spec{Kind: dataload.Clustered, Clusters: 8, PerCluster: 25000, Radius: 300, Seed: 13}}
	// probes is the small outer of the remote join: one probe round trip
	// per outer tuple.
	probes = dataset{"uniform-n200-s14.csv", dataload.Spec{Kind: dataload.Uniform, N: 200, Seed: 14}}
	// ledger is the side dataset the write trickle of the read-only
	// workloads goes to, so their writes never invalidate the read path.
	ledger = dataset{"uniform-n20000-s11.csv", dataload.Spec{Kind: dataload.Uniform, N: 20000, Seed: 11}}
)

// path is where d's CSV lives under dataDir.
func (d dataset) path(dataDir string) string { return filepath.Join(dataDir, d.file) }

// ensure writes d's CSV unless it already exists; the file is renamed into
// place so an interrupted run never leaves a truncated dataset behind.
func (d dataset) ensure(dataDir string) error {
	p := d.path(dataDir)
	if _, err := os.Stat(p); err == nil {
		return nil
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	st, err := d.spec.Store()
	if err != nil {
		return fmt.Errorf("generating %s: %w", d.file, err)
	}
	tmp := p + ".tmp"
	if err := pointio.WriteFileStore(tmp, st); err != nil {
		return fmt.Errorf("writing %s: %w", d.file, err)
	}
	return os.Rename(tmp, p)
}

// load reads d's CSV back, exactly as knnserve's file: spec does.
func (d dataset) load(dataDir string) ([]twoknn.Point, error) {
	return dataload.FileSpec(d.path(dataDir)).Points()
}

// Request kinds. Reads are the query routes; writes are the mutation routes.
const (
	kSelect = "knn-select"
	kTwo    = "two-selects"
	kBatch  = "knn-select-batch"
	// kBatchLarge is a knn-select-batch of batchLargeSize focals: a map
	// view refreshing many pins at once.
	kBatchLarge = "knn-select-batch-large"
	kJoin       = "knn-join"
	kInnerJoin  = "select-inner-join"
	kOuterJoin  = "select-outer-join"
	kInsert     = "insert"
	kRemove     = "remove"
)

var readKinds = []string{kSelect, kTwo, kBatch, kJoin, kInnerJoin, kOuterJoin}

func isWrite(kind string) bool { return kind == kInsert || kind == kRemove }

// Query shapes of every workload.
const (
	selectK        = 16 // knn-select and each batch focal
	twoK           = 64 // both predicates of two-selects
	batchSize      = 16 // focals per knn-select-batch
	batchLargeSize = 1024
	joinK          = 5  // k_join of every join shape
	joinKSel       = 64 // k_sel of the select-join shapes
	writeSize      = 8  // points per insert, IDs per remove
	hotspots       = 16384
	zipfS          = 1.1
)

// A workload is one traffic mix against one deployment.
type workload struct {
	name string
	// closed selects a closed loop with nproc clients; otherwise the timed
	// phase is an open loop (Poisson reads at rate per second, writes every
	// 1/writeRate seconds), followed by a closed-loop saturation phase.
	closed    bool
	rate      float64
	writeRate float64
	// reads is one cycle of read kinds: every cycle issues each listed kind
	// once, in a seed-shuffled order, so a run's mix is exact however short.
	reads []string
	// writeEvery interleaves one write (inserts and removes alternate)
	// after every writeEvery reads in closed loops.
	writeEvery int

	// sel is the dataset the select shapes and batches query; outer/inner
	// are the join operands; writeTo receives inserts and removes.
	sel, outer, inner, writeTo string
	// remote serves sel from two knnshard processes (spatial policy)
	// behind a knnserve coordinator.
	remote bool
	// files maps every dataset name the deployment registers to its CSV.
	files map[string]dataset
}

// repeat lists kind n times.
func repeat(kind string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = kind
	}
	return out
}

var workloads = []*workload{
	{
		name:       "select-mix",
		rate:       1500,
		writeRate:  75,
		reads:      slices.Concat(repeat(kSelect, 29), repeat(kTwo, 10), repeat(kBatch, 10), repeat(kBatchLarge, 1)),
		writeEvery: 20,
		sel:        "berlin", writeTo: "ledger",
		files: map[string]dataset{"berlin": berlin, "ledger": ledger},
	},
	{
		name:       "join-skewed",
		closed:     true,
		reads:      []string{kJoin, kInnerJoin, kOuterJoin},
		writeEvery: 1,
		sel:        "inner", outer: "outer", inner: "inner", writeTo: "ledger",
		files: map[string]dataset{"outer": joinOuter, "inner": joinInner, "ledger": ledger},
	},
	{
		name:       "remote-scatter",
		rate:       300,
		writeRate:  15,
		reads:      slices.Concat(repeat(kSelect, 14), repeat(kTwo, 5), repeat(kBatch, 5), repeat(kJoin, 1)),
		writeEvery: 20,
		remote:     true,
		sel:        "berlin", outer: "probes", inner: "berlin", writeTo: "ledger",
		files: map[string]dataset{"berlin": berlin, "probes": probes, "ledger": ledger},
	},
	{
		// Closed loop: each write forces a render-table rebuild on the next
		// read, and in an open loop the reads queued behind those few stalls
		// set the tail, which varied by half between runs of one seed.
		name:       "read-write",
		closed:     true,
		reads:      slices.Concat(repeat(kBatch, 3), repeat(kSelect, 1)),
		writeEvery: 40,
		sel:        "berlin", writeTo: "berlin",
		files: map[string]dataset{"berlin": berlin},
	},
}

func workloadNamed(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// A request is one generated HTTP request plus the parameters the answer
// check needs to recompute it in process.
type request struct {
	seq  int
	kind string
	path string
	body []byte
	// at is the scheduled send offset from the phase start (open loop).
	at float64

	f, f2  twoknn.Point
	focals []twoknn.Point
	pts    []twoknn.Point
	ids    []int32
}

// stream generates a workload's requests deterministically from the seed.
// next is safe for concurrent use; the sequence it returns depends only on
// the seed and the workload.
type stream struct {
	w *workload

	mu      sync.Mutex
	rng     *rand.Rand
	zipf    *rand.Zipf
	hot     []twoknn.Point
	seq     int
	removed map[int32]bool
	// cycle is what is left of the current read cycle; reads counts reads
	// since the last write, writes counts writes (closed-loop interleaving).
	cycle         []string
	reads, writes int
	// removable is the ID range removes draw from: the base points of the
	// written dataset, which the stream removes at most once each.
	removable int
}

func newStream(w *workload, seed uint64, removable int) *stream {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	rng := rand.New(rand.NewPCG(seed, h.Sum64()))
	s := &stream{w: w, rng: rng, removed: make(map[int32]bool), removable: removable}
	s.hot = make([]twoknn.Point, hotspots)
	for i := range s.hot {
		s.hot[i] = s.uniform()
	}
	s.zipf = rand.NewZipf(rng, zipfS, 1, hotspots-1)
	return s
}

// uniform draws a point of the 10000 x 10000 region every dataset spans.
func (s *stream) uniform() twoknn.Point {
	return twoknn.Point{X: s.rng.Float64() * 10000, Y: s.rng.Float64() * 10000}
}

// nextRead draws the next read kind of the shuffled cycle.
func (s *stream) nextRead() string {
	if len(s.cycle) == 0 {
		s.cycle = slices.Clone(s.w.reads)
		s.rng.Shuffle(len(s.cycle), func(i, j int) { s.cycle[i], s.cycle[j] = s.cycle[j], s.cycle[i] })
	}
	k := s.cycle[0]
	s.cycle = s.cycle[1:]
	return k
}

// nextWrite alternates inserts and removes.
func (s *stream) nextWrite() string {
	s.writes++
	if s.writes%2 == 1 {
		return kInsert
	}
	return kRemove
}

// next returns the closed loop's next request: reads from the cycle, with
// a write after every writeEvery reads.
func (s *stream) next() *request {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reads >= s.w.writeEvery {
		s.reads = 0
		return s.nextLocked(s.nextWrite())
	}
	s.reads++
	return s.nextLocked(s.nextRead())
}

// nextOf returns the stream's next request of one kind (the answer-check
// checkpoints draw their reads this way).
func (s *stream) nextOf(kind string) *request {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextLocked(kind)
}

func (s *stream) nextLocked(kind string) *request {
	w := s.w
	r := &request{seq: s.seq, kind: kind}
	s.seq++
	var req server.Request
	switch kind {
	case kSelect:
		r.f = s.uniform()
		req = &server.KNNSelectRequest{Dataset: w.sel, F: arg(r.f), K: selectK}
	case kTwo:
		r.f = s.uniform()
		r.f2 = twoknn.Point{X: r.f.X + (s.rng.Float64()-0.5)*500, Y: r.f.Y + (s.rng.Float64()-0.5)*500}
		req = &server.TwoSelectsRequest{Dataset: w.sel, F1: arg(r.f), K1: twoK, F2: arg(r.f2), K2: twoK}
	case kBatch, kBatchLarge:
		n := batchSize
		if kind == kBatchLarge {
			n = batchLargeSize
		}
		r.focals = make([]twoknn.Point, n)
		fs := make([]server.PointArg, n)
		for i := range r.focals {
			r.focals[i] = s.hot[s.zipf.Uint64()]
			fs[i] = arg(r.focals[i])
		}
		req = &server.KNNSelectBatchRequest{Dataset: w.sel, Focals: fs, K: selectK}
	case kJoin:
		req = &server.KNNJoinRequest{Outer: w.outer, Inner: w.inner, K: joinK}
	case kInnerJoin:
		r.f = s.uniform()
		req = &server.SelectInnerJoinRequest{Outer: w.outer, Inner: w.inner, F: arg(r.f), KJoin: joinK, KSel: joinKSel}
	case kOuterJoin:
		r.f = s.uniform()
		req = &server.SelectOuterJoinRequest{Outer: w.outer, Inner: w.inner, F: arg(r.f), KSel: joinKSel, KJoin: joinK}
	case kInsert:
		r.pts = make([]twoknn.Point, writeSize)
		ps := make([]server.PointArg, writeSize)
		for i := range r.pts {
			r.pts[i] = s.uniform()
			ps[i] = arg(r.pts[i])
		}
		req = &server.InsertRequest{Dataset: w.writeTo, Points: ps}
	case kRemove:
		if len(s.removed)+writeSize > s.removable/2 {
			return s.nextLocked(kInsert) // keep removes cheap to draw: never exhaust the base IDs
		}
		r.ids = make([]int32, 0, writeSize)
		for len(r.ids) < writeSize {
			id := int32(s.rng.IntN(s.removable))
			if !s.removed[id] {
				s.removed[id] = true
				r.ids = append(r.ids, id)
			}
		}
		req = &server.RemoveRequest{Dataset: w.writeTo, IDs: r.ids}
	default:
		panic("servebench: unknown request kind " + kind)
	}
	r.path = routeOf(kind)
	body, err := server.EncodeRequest(req)
	if err != nil {
		panic(err) // plain structs of numbers and strings always encode
	}
	r.body = body
	return r
}

// schedule draws the open-loop phase's requests over dur seconds: reads
// with Poisson arrivals at w.rate per second, and writes at the fixed
// period 1/w.writeRate from a seed-drawn offset.
func (s *stream) schedule(dur float64) []*request {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*request
	period := 1 / s.w.writeRate
	tr := -math.Log(1-s.rng.Float64()) / s.w.rate
	tw := s.rng.Float64() * period
	for min(tr, tw) < dur {
		var r *request
		if tw <= tr {
			r = s.nextLocked(s.nextWrite())
			r.at = tw
			tw += period
		} else {
			r = s.nextLocked(s.nextRead())
			r.at = tr
			tr += -math.Log(1-s.rng.Float64()) / s.w.rate
		}
		out = append(out, r)
	}
	return out
}

func arg(p twoknn.Point) server.PointArg { return server.PointArg{X: p.X, Y: p.Y} }

func routeOf(kind string) string {
	switch kind {
	case kInsert:
		return "/v1/data/insert"
	case kRemove:
		return "/v1/data/remove"
	case kBatchLarge:
		return "/v1/query/" + kBatch
	default:
		return "/v1/query/" + kind
	}
}

// baseLen is how many base points (stable IDs 0..n-1) the written dataset
// has; removes draw from them.
func (w *workload) baseLen() (int, error) { return w.files[w.writeTo].points() }

// points is how many points d's generator writes.
func (d dataset) points() (int, error) {
	switch d.spec.Kind {
	case dataload.Uniform, dataload.BerlinMOD:
		return d.spec.N, nil
	case dataload.Clustered:
		return d.spec.Clusters * d.spec.PerCluster, nil
	}
	return 0, fmt.Errorf("unknown size of dataset %s", d.file)
}

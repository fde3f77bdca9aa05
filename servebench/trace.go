package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	twoknn "repro"
	"repro/internal/geom"
	"repro/internal/index/grid"
	"repro/internal/kernel"
	"repro/internal/remote"
	"repro/internal/server"
)

// This file is the traced run (--trace 1). It rebuilds the workload's
// deployment in process — the same server package, datasets and, for the
// remote workload, two shard servers on loopback HTTP — and replays the
// workload's request stream through it, recording spans around the calls
// into each layer's public functions. Per-layer metrics come from those
// spans, from before/after scrapes of /metrics, and from direct calls into
// the index, kernel, remote and mutation layers over the workload's data.
// End-to-end numbers never come from here.

// span is one timed call. Spans of one request share req; parent is the
// index of the enclosing span in the recorder, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) begin(name string, parent, req int) int {
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Req: req})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) time.Duration {
	r.spans[i].End = int64(time.Since(r.t0))
	return time.Duration(r.spans[i].End - r.spans[i].Start)
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of it its children cover
// (children of one parent never overlap in the sequential replay).
func (r *recorder) selfTime(i int) time.Duration {
	d := r.spans[i].End - r.spans[i].Start
	for _, s := range r.spans[i+1:] {
		if s.Req != r.spans[i].Req {
			break
		}
		if s.Parent == i {
			d -= s.End - s.Start
		}
	}
	return time.Duration(d)
}

// env is the in-process deployment.
type env struct {
	srv     *server.Server
	h       http.Handler
	sources map[string]twoknn.Source
	pts     map[string][]twoknn.Point
	// fleet is a 2-shard spatial partition of the select dataset served on
	// loopback HTTP; the remote workload queries through it, every workload
	// measures the probe transports on it.
	fleet      []*remote.ShardServer
	fleetURLs  []string
	httpSrvs   []*http.Server
	load       time.Duration
	build      time.Duration
	dial       time.Duration
	register   time.Duration
	shardBuild time.Duration
}

func (e *env) close() {
	for _, s := range e.httpSrvs {
		_ = s.Close()
	}
}

// serveLoopback serves h on an ephemeral loopback port.
func (e *env) serveLoopback(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	e.httpSrvs = append(e.httpSrvs, hs)
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

func buildEnv(w *workload, dataDir string) (*env, error) {
	e := &env{
		srv:     server.New(server.Config{}),
		sources: map[string]twoknn.Source{},
		pts:     map[string][]twoknn.Point{},
	}
	e.h = e.srv.Handler()
	for _, name := range sortedKeys(w.files) {
		t := time.Now()
		pts, err := w.files[name].load(dataDir)
		if err != nil {
			return nil, err
		}
		e.load += time.Since(t)
		e.pts[name] = pts
	}

	// The shard fleet over the select dataset.
	const shards = 2
	t := time.Now()
	for i := 0; i < shards; i++ {
		h, err := twoknn.NewShardHandler(w.sel, e.pts[w.sel], i, shards, twoknn.WithShardPolicy(twoknn.SpatialSharding))
		if err != nil {
			return nil, err
		}
		ss, ok := h.(*remote.ShardServer)
		if !ok {
			return nil, fmt.Errorf("shard handler is %T, not a shard server", h)
		}
		e.fleet = append(e.fleet, ss)
	}
	e.shardBuild = time.Since(t)
	var shardURLs [][]string
	for _, ss := range e.fleet {
		u, err := e.serveLoopback(ss)
		if err != nil {
			e.close()
			return nil, err
		}
		e.fleetURLs = append(e.fleetURLs, u)
		shardURLs = append(shardURLs, []string{u})
	}
	t = time.Now()
	rr, err := twoknn.DialRemote(context.Background(), w.sel, shardURLs, nil)
	if err != nil {
		e.close()
		return nil, err
	}
	e.dial = time.Since(t)

	for _, name := range sortedKeys(w.files) {
		var src twoknn.Source = rr
		if !w.remote || name != w.sel {
			t := time.Now()
			rel, err := twoknn.NewRelation(name, e.pts[name], twoknn.WithIndexKind(twoknn.GridIndex))
			if err != nil {
				e.close()
				return nil, err
			}
			e.build += time.Since(t)
			src = rel
		} else {
			e.build += e.shardBuild
		}
		t := time.Now()
		if err := e.srv.Register(name, src); err != nil {
			e.close()
			return nil, err
		}
		e.register += time.Since(t)
		e.sources[name] = src
	}
	return e, nil
}

// metricsOf scrapes /metrics through the in-process handler.
func (e *env) metricsOf() (*server.MetricsResponse, error) {
	rec := httptest.NewRecorder()
	e.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d", rec.Code)
	}
	var m server.MetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// direct is the engine call a read request maps to, with stats; it returns
// the result points (pairs flattened left, right) for the coordinate check.
func direct(w *workload, e *env, r *request, st *twoknn.Stats) ([]twoknn.Point, error) {
	opts := []twoknn.QueryOption{twoknn.WithStats(st)}
	sel := e.sources[w.sel]
	flat := func(ps []twoknn.Pair, err error) ([]twoknn.Point, error) {
		out := make([]twoknn.Point, 0, 2*len(ps))
		for _, p := range ps {
			out = append(out, p.Left, p.Right)
		}
		return out, err
	}
	outer, inner := e.sources[w.outer], e.sources[w.inner]
	if outer == nil { // workloads without a join operand use the probe outer
		outer, inner = e.sources[probeOuter], sel
	}
	switch r.kind {
	case kSelect:
		return twoknn.KNNSelect(sel, r.f, selectK, opts...)
	case kTwo:
		return twoknn.TwoSelects(sel, r.f, twoK, r.f2, twoK, opts...)
	case kBatch, kBatchLarge:
		res, err := twoknn.KNNSelectBatch(sel, r.focals, selectK, opts...)
		return slices.Concat(res...), err
	case kJoin:
		return flat(twoknn.KNNJoin(outer, inner, joinK, opts...))
	case kInnerJoin:
		return flat(twoknn.SelectInnerJoin(outer, inner, r.f, joinK, joinKSel, opts...))
	case kOuterJoin:
		return flat(twoknn.SelectOuterJoin(outer, inner, r.f, joinKSel, joinK, opts...))
	}
	return nil, fmt.Errorf("no engine call for %s", r.kind)
}

// probeOuter names the 200-point outer the traced run registers for
// workloads whose traffic has no join, so every engine shape is timed.
const probeOuter = "probe-outer"

// served flattens a response body's rows into points, like direct.
func served(body []byte) (server.QueryResponse, []twoknn.Point, error) {
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, nil, err
	}
	var out []twoknn.Point
	for _, p := range resp.Points {
		out = append(out, twoknn.Point{X: p.X, Y: p.Y})
	}
	for _, b := range resp.Batches {
		for _, p := range b {
			out = append(out, twoknn.Point{X: p.X, Y: p.Y})
		}
	}
	for _, p := range resp.Pairs {
		out = append(out, twoknn.Point{X: p.Left.X, Y: p.Left.Y}, twoknn.Point{X: p.Right.X, Y: p.Right.Y})
	}
	return resp, out, nil
}

func samePoints(a, b []twoknn.Point) bool {
	cmp := func(p, q twoknn.Point) int {
		if p.X != q.X {
			if p.X < q.X {
				return -1
			}
			return 1
		}
		if p.Y < q.Y {
			return -1
		} else if p.Y > q.Y {
			return 1
		}
		return 0
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, cmp)
	slices.SortFunc(b, cmp)
	return slices.Equal(a, b)
}

// engineMetric names the per-shape engine time metric.
var engineMetric = map[string]string{
	kSelect: "engine.knn_select_us", kTwo: "engine.two_selects_us", kBatch: "engine.select_batch_us", kBatchLarge: "engine.select_batch_us",
	kJoin: "engine.knn_join_us", kInnerJoin: "engine.select_inner_join_us", kOuterJoin: "engine.select_outer_join_us",
}

// acc is a running mean.
type acc struct {
	sum float64
	n   int
}

func (a *acc) add(v float64) { a.sum += v; a.n++ }
func (a *acc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runTraced is the traced run.
func runTraced(c config, w *workload, dataDir string, rec *record) (*result, error) {
	if err := probes.ensure(dataDir); err != nil {
		return nil, err
	}
	e, err := buildEnv(w, dataDir)
	if err != nil {
		return nil, err
	}
	defer e.close()
	if _, ok := e.sources[w.outer]; !ok {
		pts, err := probes.load(dataDir)
		if err != nil {
			return nil, err
		}
		rel, err := twoknn.NewRelation(probeOuter, pts)
		if err != nil {
			return nil, err
		}
		e.sources[probeOuter] = rel
	}
	nproc := runtime.NumCPU()
	base, err := w.baseLen()
	if err != nil {
		return nil, err
	}
	st := newStream(w, c.seed, base)
	chk := newChecker(c.seed, false, false)
	m := map[string]metric{}

	// Phase A: the workload's own loop through the in-process handler,
	// untraced. It warms caches and measures how late the generator runs.
	var load *phase
	if w.closed {
		load = runClosed(handlerSender{e.h}, st, nproc, seconds(0.3*c.seconds), chk)
	} else {
		load = runOpen(handlerSender{e.h}, st.schedule(0.3*c.seconds), nproc, 2*time.Second, chk)
	}
	m["loadgen.late_p99_ms"] = metric{quantile(load.late, 0.99), "ms"}
	attempted, failed := load.attempted, load.failed

	// Phase B: the traced sequential replay.
	before, err := e.metricsOf()
	if err != nil {
		return nil, err
	}
	tr := &recorder{t0: time.Now()}
	var (
		decode, handler, self, respKB, allocKB, blocks acc
		nbrs, pruned, skipped, points, probed, engine  acc
		engineBy                                       = map[string]*acc{}
		perFocal                                       acc
		nRead                                          int
		wrong                                          int
	)
	var buf bytes.Buffer
	var ms0, ms1 runtime.MemStats
	remoteSel, _ := e.sources[w.sel].(*twoknn.RemoteRelation)
	deadline := time.Now().Add(seconds(0.4 * c.seconds))
	for i := 0; time.Now().Before(deadline) || i < 8; i++ {
		r := st.next()
		root := tr.begin("request", -1, r.seq)
		sd := tr.begin("server.decode", root, r.seq)
		if err := server.DecodeRequestBytes(r.body, typedRequest(r.kind)); err != nil {
			return nil, fmt.Errorf("decoding generated %s request: %w", r.kind, err)
		}
		dd := tr.end(sd)
		decode.add(us(dd))

		var shardOps0 []twoknn.ShardStats
		if remoteSel != nil {
			shardOps0, _ = remoteSel.Snapshot()
		}
		runtime.ReadMemStats(&ms0)
		sh := tr.begin("server.handler", root, r.seq)
		status, _ := handlerSender{e.h}.send(r, &buf)
		hd := tr.end(sh)
		runtime.ReadMemStats(&ms1)
		attempted++
		if status != http.StatusOK || !chk.observe(r, buf.Bytes()) {
			failed++
			tr.end(root)
			continue
		}
		handler.add(us(hd))
		respKB.add(float64(buf.Len()) / 1024)
		allocKB.add(float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024)
		if isWrite(r.kind) {
			tr.end(root)
			continue
		}
		nRead++
		if remoteSel != nil {
			after, _ := remoteSel.Snapshot()
			probed.add(float64(changedShards(shardOps0, after)))
		} else {
			probed.add(1)
		}
		resp, got, err := served(buf.Bytes())
		if err != nil {
			return nil, err
		}
		blocks.add(float64(resp.Stats.BlocksScanned))

		var stats twoknn.Stats
		se := tr.begin(engineMetric[r.kind], root, r.seq)
		want, err := direct(w, e, r, &stats)
		ed := tr.end(se)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		if !samePoints(got, want) {
			wrong++
		}
		name := engineMetric[r.kind]
		if engineBy[name] == nil {
			engineBy[name] = &acc{}
		}
		engineBy[name].add(us(ed))
		engine.add(us(ed))
		// The handler evaluated only the batch focals its cache missed.
		attributed := us(ed)
		if r.focals != nil {
			perFocal.add(us(ed) / float64(len(r.focals)))
			attributed = us(ed) / float64(len(r.focals)) * float64(resp.Stats.CacheMisses)
		}
		self.add(us(hd) - us(dd) - attributed)
		nbrs.add(float64(stats.Neighborhoods))
		pruned.add(float64(stats.BlocksPruned))
		skipped.add(float64(stats.OuterSkipped))
		points.add(float64(stats.PointsCompared))
	}
	after, err := e.metricsOf()
	if err != nil {
		return nil, err
	}
	failed += wrong

	m["server.decode_us"] = metric{decode.mean(), "us"}
	m["server.handler_us"] = metric{handler.mean(), "us"}
	m["server.self_us"] = metric{self.mean(), "us"}
	m["server.resp_kb"] = metric{respKB.mean(), "KB"}
	m["server.alloc_kb_per_req"] = metric{allocKB.mean(), "KB"}
	m["index.blocks_scanned_per_req"] = metric{blocks.mean(), "count"}
	m["engine.neighborhoods_per_req"] = metric{nbrs.mean(), "count"}
	m["engine.blocks_pruned_per_req"] = metric{pruned.mean(), "count"}
	m["engine.outer_skipped_per_req"] = metric{skipped.mean(), "count"}
	m["kernel.points_per_req"] = metric{points.mean(), "count"}
	m["shard.shards_probed_per_req"] = metric{probed.mean(), "count"}

	// Engine shapes the workload's traffic does not issue are timed on a
	// short probe set over its data, so every engine metric is measured.
	for _, kind := range readKinds {
		name := engineMetric[kind]
		if engineBy[name] == nil {
			a := &acc{}
			for i := 0; i < 4; i++ {
				r := st.nextOf(kind)
				var stats twoknn.Stats
				t := time.Now()
				if _, err := direct(w, e, r, &stats); err != nil {
					return nil, err
				}
				a.add(us(time.Since(t)))
				if r.focals != nil {
					perFocal.add(us(time.Since(t)) / float64(len(r.focals)))
				}
			}
			engineBy[name] = a
		}
		m[name] = metric{engineBy[name].mean(), "us"}
	}
	m["batch.us_per_focal"] = metric{perFocal.mean(), "us"}

	// Route, cache, delta and remote counters over the traced replay.
	cnt := counterDeltas(before, after, w)
	nReads := float64(max(1, nRead))
	m["server.shed_frac"] = metric{cnt.shed / max(1, cnt.requests), "frac"}
	m["server.deadline_frac"] = metric{cnt.deadline / max(1, cnt.requests), "frac"}
	m["qcache.hit_ratio"] = metric{cnt.hits / max(1, cnt.hits+cnt.misses), "frac"}
	m["qcache.entries"] = metric{cnt.entries, "count"}
	m["remote.probes_per_req"] = metric{cnt.attempts / nReads, "count"}
	m["remote.retries_per_req"] = metric{cnt.retries / nReads, "count"}
	m["remote.hedges_per_req"] = metric{cnt.hedges / nReads, "count"}
	m["remote.failovers"] = metric{cnt.failovers, "count"}
	m["mutate.delta_frac"] = metric{cnt.deltaFrac, "frac"}
	m["mutate.compactions"] = metric{cnt.compactions, "count"}

	// Tracing overhead and the HTTP share, on knn-selects of the stream.
	ov, httpUS, err := overheadAndHTTP(e, st)
	if err != nil {
		return nil, err
	}
	m["trace.overhead_us_per_req"] = metric{ov, "us"}
	m["server.http_us"] = metric{httpUS, "us"}

	rebuild, err := renderRebuild(e.pts[w.sel], st)
	if err != nil {
		return nil, err
	}
	m["server.render_rebuild_ms"] = metric{rebuild, "ms"}

	focals, k := indexFocals(w, e, st)
	emptyFrac, iterUS, occupancy, err := indexIteration(e.pts[w.sel], focals, k)
	if err != nil {
		return nil, err
	}
	m["index.empty_pop_frac"] = metric{emptyFrac, "frac"}
	m["index.iter_us_per_focal"] = metric{iterUS, "us"}
	nsPerPoint := distSqCost(occupancy)
	m["kernel.distsq_ns_per_point"] = metric{nsPerPoint, "ns"}
	m["kernel.share"] = metric{points.mean() * nsPerPoint / max(1, 1000*engine.mean()), "frac"}

	probeHTTP, probeLoop, err := probeTransports(e, focals)
	if err != nil {
		return nil, err
	}
	m["remote.probe_http_us"] = metric{probeHTTP, "us"}
	m["remote.probe_loopback_us"] = metric{probeLoop, "us"}

	insertUS, compactMS, err := mutation(e.pts[w.sel], st)
	if err != nil {
		return nil, err
	}
	m["mutate.insert_us_per_point"] = metric{insertUS, "us"}
	m["mutate.compact_ms"] = metric{compactMS, "ms"}

	m["setup.load_s"] = metric{e.load.Seconds(), "s"}
	m["setup.build_s"] = metric{e.build.Seconds(), "s"}
	m["setup.dial_s"] = metric{e.dial.Seconds(), "s"}
	m["setup.register_s"] = metric{e.register.Seconds(), "s"}

	var rootSelf acc
	for i, s := range tr.spans {
		if s.Parent == -1 {
			rootSelf.add(us(tr.selfTime(i)))
		}
	}
	rec.Info["traced_requests"] = attempted - load.attempted
	rec.Info["replay_self_us"] = rootSelf.mean()
	rec.Info["spans"] = len(tr.spans)
	rec.Info["wrong_answers"] = wrong
	tracePath := filepath.Join(c.workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, c.seed))
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	rec.Info["trace_file"] = tracePath

	res := &result{Correct: wrong == 0, Attempted: attempted, Failed: failed, Metrics: m}
	if wrong > 0 {
		return res, fmt.Errorf("%d traced answers differ from the direct engine call", wrong)
	}
	return res, nil
}

func typedRequest(kind string) server.Request {
	switch kind {
	case kSelect:
		return &server.KNNSelectRequest{}
	case kTwo:
		return &server.TwoSelectsRequest{}
	case kBatch, kBatchLarge:
		return &server.KNNSelectBatchRequest{}
	case kJoin:
		return &server.KNNJoinRequest{}
	case kInnerJoin:
		return &server.SelectInnerJoinRequest{}
	case kOuterJoin:
		return &server.SelectOuterJoinRequest{}
	case kInsert:
		return &server.InsertRequest{}
	default:
		return &server.RemoveRequest{}
	}
}

// changedShards counts the shards whose operation counters moved.
func changedShards(before, after []twoknn.ShardStats) int {
	n := 0
	for i := range after {
		if i < len(before) && after[i].Ops != before[i].Ops {
			n++
		}
	}
	return n
}

type counters struct {
	requests, shed, deadline             float64
	hits, misses, entries                float64
	attempts, retries, hedges, failovers float64
	deltaFrac, compactions               float64
}

// counterDeltas derives the /metrics counters of the traced replay.
func counterDeltas(before, after *server.MetricsResponse, w *workload) counters {
	var c counters
	for name, a := range after.Routes {
		b := before.Routes[name]
		c.requests += float64(a.Requests - b.Requests)
		c.shed += float64(a.Shed - b.Shed)
		c.deadline += float64(a.Deadline - b.Deadline)
	}
	sa, sb := after.Datasets[w.sel], before.Datasets[w.sel]
	c.hits = float64(sa.CacheHits - sb.CacheHits)
	c.misses = float64(sa.CacheMisses - sb.CacheMisses)
	c.entries = float64(sa.CacheEntries)
	sum := func(ds server.DatasetMetrics) (att, ret, hed, fo float64) {
		for _, sh := range ds.Remote {
			fo += float64(sh.Failovers)
			for _, ep := range sh.Endpoints {
				att += float64(ep.Attempts)
				ret += float64(ep.Retries)
				hed += float64(ep.Hedges)
			}
		}
		return
	}
	a1, r1, h1, f1 := sum(sa)
	a0, r0, h0, f0 := sum(sb)
	c.attempts, c.retries, c.hedges, c.failovers = a1-a0, r1-r0, h1-h0, f1-f0
	if d := after.Datasets[w.writeTo].Delta; d != nil && d.Live > 0 {
		c.deltaFrac = float64(d.DeltaLive+d.Tombstones) / float64(d.Live)
		if b := before.Datasets[w.writeTo].Delta; b != nil {
			c.compactions = float64(d.Compactions - b.Compactions)
		}
	}
	return c
}

// overheadAndHTTP replays knn-selects of the stream — the smallest request,
// so the difference is not lost in the noise of the work — through the
// handler untraced and traced, in alternating order, and once more over
// loopback HTTP. It returns the traced-minus-untraced time per request and
// the loopback-minus-handler time per request, both in microseconds.
func overheadAndHTTP(e *env, st *stream) (overhead, httpUS float64, err error) {
	const n = 200
	sample := make([]*request, n)
	for i := range sample {
		sample[i] = st.nextOf(kSelect)
	}
	var buf bytes.Buffer
	for _, r := range sample { // warm the cache and the render table
		_, _ = handlerSender{e.h}.send(r, &buf)
	}
	// Each request runs untraced and traced back to back, in alternating
	// order, so the difference pairs like with like.
	tr := &recorder{t0: time.Now(), spans: make([]span, 0, 6*n)}
	plainRun := func(r *request) float64 {
		t := time.Now()
		_, _ = handlerSender{e.h}.send(r, &buf)
		return us(time.Since(t))
	}
	tracedRun := func(r *request) float64 {
		t := time.Now()
		root := tr.begin("request", -1, r.seq)
		sh := tr.begin("server.handler", root, r.seq)
		_, _ = handlerSender{e.h}.send(r, &buf)
		tr.end(sh)
		tr.end(root)
		return us(time.Since(t))
	}
	// The second call of a pair runs warmer; averaging the median difference
	// of each order cancels that.
	var plain, plainFirst, tracedFirst []float64
	for pass := 0; pass < 3; pass++ {
		for i, r := range sample {
			if (i+pass)%2 == 0 {
				p := plainRun(r)
				t := tracedRun(r)
				plain = append(plain, p)
				plainFirst = append(plainFirst, t-p)
			} else {
				t := tracedRun(r)
				p := plainRun(r)
				plain = append(plain, p)
				tracedFirst = append(tracedFirst, t-p)
			}
		}
	}
	var plainSum float64
	for _, p := range plain {
		plainSum += p
	}
	plainMean := plainSum / float64(len(plain))
	base, err := e.serveLoopback(e.h)
	if err != nil {
		return 0, 0, err
	}
	snd := &httpConn{addr: strings.TrimPrefix(base, "http://")}
	defer snd.close()
	var loop time.Duration
	for pass := 0; pass < 2; pass++ { // the first pass opens the connection
		loop = 0
		for _, r := range sample {
			t := time.Now()
			status, err := snd.send(r, &buf)
			if err != nil || status != http.StatusOK {
				return 0, 0, fmt.Errorf("loopback replay: status %d: %v", status, err)
			}
			loop += time.Since(t)
		}
	}
	return (median(plainFirst) + median(tracedFirst)) / 2, us(loop)/float64(n) - plainMean, nil
}

// renderRebuild is the first knn-select after a one-point insert minus a
// steady knn-select, on a mutable copy of pts served in process.
func renderRebuild(pts []twoknn.Point, st *stream) (float64, error) {
	srv := server.New(server.Config{})
	rel, err := twoknn.NewRelation("rebuild", pts)
	if err != nil {
		return 0, err
	}
	if err := srv.Register("rebuild", rel); err != nil {
		return 0, err
	}
	h := srv.Handler()
	var buf bytes.Buffer
	call := func(path string, req server.Request) (time.Duration, error) {
		body, err := server.EncodeRequest(req)
		if err != nil {
			return 0, err
		}
		t := time.Now()
		status, _ := handlerSender{h}.send(&request{path: path, body: body}, &buf)
		if status != http.StatusOK {
			return 0, fmt.Errorf("%s: status %d", path, status)
		}
		return time.Since(t), nil
	}
	sel := func() (time.Duration, error) {
		r := st.nextOf(kSelect)
		return call(routeOf(kSelect), &server.KNNSelectRequest{Dataset: "rebuild", F: arg(r.f), K: selectK})
	}
	var steady, first []float64
	for i := 0; i < 7; i++ {
		for j := 0; j < 5; j++ {
			d, err := sel()
			if err != nil {
				return 0, err
			}
			steady = append(steady, float64(d))
		}
		r := st.nextOf(kInsert)
		if _, err := call(routeOf(kInsert), &server.InsertRequest{Dataset: "rebuild", Points: []server.PointArg{arg(r.pts[0])}}); err != nil {
			return 0, err
		}
		d, err := sel()
		if err != nil {
			return 0, err
		}
		first = append(first, float64(d))
	}
	return (median(first) - median(steady)) / float64(time.Millisecond), nil
}

// indexFocals are the focals the index and probe measurements use: the join
// workload's outer points (joins probe the inner once per outer tuple), and
// the stream's select focals elsewhere.
func indexFocals(w *workload, e *env, st *stream) ([]twoknn.Point, int) {
	if w.name == "join-skewed" {
		return e.pts[w.outer], joinK
	}
	fs := make([]twoknn.Point, 256)
	for i := range fs {
		fs[i] = st.nextOf(kSelect).f
	}
	return fs, selectK
}

// indexIteration builds the engine's default grid over pts and pops blocks
// in MINDIST order around each focal until k points are covered. It returns
// the share of popped blocks that were empty, the time per focal, and the
// mean occupancy of non-empty blocks.
func indexIteration(pts []twoknn.Point, focals []twoknn.Point, k int) (emptyFrac, usPerFocal, occupancy float64, err error) {
	g, err := grid.New(pts, grid.Options{TargetPerCell: 64})
	if err != nil {
		return 0, 0, 0, err
	}
	nonEmpty := 0
	for _, b := range g.Blocks() {
		if b.Count() > 0 {
			nonEmpty++
		}
	}
	occupancy = float64(len(pts)) / float64(max(1, nonEmpty))
	var pops, empty int
	t := time.Now()
	rounds := 0
	for rounds < 3 || time.Since(t) < 100*time.Millisecond {
		for _, f := range focals {
			it := g.NewMinDistIter(geom.Point(f))
			for covered := 0; covered < k; {
				b, _, ok := it.Next()
				if !ok {
					break
				}
				pops++
				if b.Count() == 0 {
					empty++
				}
				covered += b.Count()
			}
		}
		rounds++
	}
	usPerFocal = us(time.Since(t)) / float64(rounds*len(focals))
	return float64(empty) / float64(max(1, pops)), usPerFocal, occupancy, nil
}

// distSqCost times kernel.DistSq over blocks of the given occupancy, in
// nanoseconds per point.
func distSqCost(occupancy float64) float64 {
	n := max(1, int(occupancy+0.5))
	rng := rand.New(rand.NewPCG(1, 2))
	xs, ys, out := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64()*10000, rng.Float64()*10000
	}
	calls := 0
	t := time.Now()
	for time.Since(t) < 50*time.Millisecond {
		for i := 0; i < 1000; i++ {
			kernel.DistSq(xs, ys, 5000, 5000, out)
		}
		calls += 1000
	}
	return float64(time.Since(t)) / float64(calls*n)
}

// probeTransports times a neighborhood probe of shard 0 over HTTP and over
// the in-process loopback transport, on the same shard server.
func probeTransports(e *env, focals []twoknn.Point) (httpUS, loopUS float64, err error) {
	ctx := context.Background()
	ht := remote.NewHTTPTransport(e.fleetURLs[0], nil)
	lb := remote.NewLoopback(e.fleet[0], "")
	n := min(len(focals), 128)
	timeIt := func(t remote.ShardTransport) (float64, error) {
		var resp remote.ProbeResponse
		var best float64
		for pass := 0; pass < 2; pass++ { // the first pass warms connections
			start := time.Now()
			for _, f := range focals[:n] {
				if err := t.Probe(ctx, remote.OpNeighborhood, &remote.ProbeRequest{X: f.X, Y: f.Y, K: selectK}, &resp); err != nil {
					return 0, err
				}
			}
			best = us(time.Since(start)) / float64(n)
		}
		return best, nil
	}
	if httpUS, err = timeIt(ht); err != nil {
		return 0, 0, err
	}
	loopUS, err = timeIt(lb)
	return httpUS, loopUS, err
}

// mutation times Relation.Insert per point and one Compact of the
// resulting overlay, on a fresh relation over pts.
func mutation(pts []twoknn.Point, st *stream) (insertUS, compactMS float64, err error) {
	rel, err := twoknn.NewRelation("mutate", pts, twoknn.WithCompactThreshold(-1))
	if err != nil {
		return 0, 0, err
	}
	var batch []twoknn.Point
	for len(batch) < 64 {
		batch = append(batch, st.nextOf(kInsert).pts...)
	}
	const batches = 32
	t := time.Now()
	for i := 0; i < batches; i++ {
		rel.Insert(batch...)
	}
	insertUS = us(time.Since(t)) / float64(batches*len(batch))
	t = time.Now()
	if err := rel.Compact(); err != nil {
		return 0, 0, err
	}
	return insertUS, float64(time.Since(t)) / float64(time.Millisecond), nil
}

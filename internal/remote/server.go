package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/locality"
	"repro/internal/stats"
)

// ShardServerConfig names what a ShardServer serves.
type ShardServerConfig struct {
	// Name is the dataset name reported by /shard/v1/info.
	Name string

	// Shard and Shards are this process's position in the partition layout.
	// The coordinator validates them at dial time. Shards == 0 disables the
	// check (a standalone shard).
	Shard  int
	Shards int

	// Index labels the index family in /shard/v1/info (diagnostic).
	Index string

	// Epoch is the served snapshot's epoch (defaults to 1).
	Epoch uint64
}

// ShardServer serves one shard's candidate-generation contract over the
// HTTP/JSON shard-probe protocol. It is an http.Handler; cmd/knnshard
// mounts one per process, and the loopback transport calls its probe logic
// directly (same code path, no sockets) for single-process layouts.
//
// Every probe borrows a searcher handle from the relation's pool and binds
// it to the request context, so a disconnected or hedged-away client
// cancels the server-side scan at the next block checkpoint.
type ShardServer struct {
	rel *core.Relation
	cfg ShardServerConfig
	mux *http.ServeMux

	// idOf resolves a result coordinate to its smallest stable ID over this
	// shard's points (co-located duplicates collapse deterministically,
	// matching the coordinator's render table).
	idOf map[geom.Point]int32

	// counters is the shard's lifetime operation tally across all probes
	// (served by /metrics next to the per-op counts).
	counters stats.Counters

	probes      [4]atomic.Int64 // per-Op served probe requests
	batchFocals atomic.Int64    // focals answered by batch requests
	blocks      atomic.Int64    // block-points fetches served
	errs        atomic.Int64    // requests answered with a non-2xx status
}

// NewShardServer builds the server for one shard relation.
func NewShardServer(rel *core.Relation, cfg ShardServerConfig) *ShardServer {
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	s := &ShardServer{rel: rel, cfg: cfg}
	st := rel.Store()
	s.idOf = make(map[geom.Point]int32, st.Len())
	for i := 0; i < st.Len(); i++ {
		p, id := st.At(i), st.ID(i)
		if old, ok := s.idOf[p]; !ok || id < old {
			s.idOf[p] = id
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc(pathPrefix+"/neighborhood", s.handleProbe(OpNeighborhood))
	s.mux.HandleFunc(pathPrefix+"/neighborhood-within", s.handleProbe(OpWithin))
	s.mux.HandleFunc(pathPrefix+"/count-closer", s.handleProbe(OpCount))
	s.mux.HandleFunc(pathPrefix+"/"+OpBatch.String(), s.handleBatch)
	s.mux.HandleFunc(pathPrefix+"/info", s.handleInfo)
	s.mux.HandleFunc(pathPrefix+"/blocks", s.handleBlocks)
	s.mux.HandleFunc(pathPrefix+"/block", s.handleBlock)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *ShardServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Relation returns the served shard relation (the loopback transport's
// direct path).
func (s *ShardServer) Relation() *core.Relation { return s.rel }

// Counters returns the shard's lifetime operation counters.
func (s *ShardServer) Counters() *stats.Counters { return &s.counters }

// info assembles the shard's identity card.
func (s *ShardServer) info() Info {
	return Info{
		Name:   s.cfg.Name,
		Shard:  s.cfg.Shard,
		Shards: s.cfg.Shards,
		Len:    s.rel.Len(),
		Bounds: rectToWire(s.rel.Ix.Bounds()),
		Index:  s.cfg.Index,
		Epoch:  s.cfg.Epoch,
		Blocks: len(s.rel.Ix.Blocks()),
	}
}

// blockHeaders assembles the outer-side block listing.
func (s *ShardServer) blockHeaders() []BlockHeader {
	blks := s.rel.Ix.Blocks()
	out := make([]BlockHeader, len(blks))
	for i, b := range blks {
		out[i] = BlockHeader{Span: rectToWire(b.Bounds), Count: b.Count()}
	}
	return out
}

// blockPoints returns block i's points with stable IDs, or an error for an
// out-of-range index.
func (s *ShardServer) blockPoints(i int) (*BlockPointsResponse, error) {
	blks := s.rel.Ix.Blocks()
	if i < 0 || i >= len(blks) {
		return nil, fmt.Errorf("block %d out of range [0,%d)", i, len(blks))
	}
	b := blks[i]
	xs, ys := b.XYs()
	resp := &BlockPointsResponse{
		IDs: append([]int32(nil), b.PointIDs()...),
		Xs:  append([]float64(nil), xs...),
		Ys:  append([]float64(nil), ys...),
	}
	s.blocks.Add(1)
	return resp, nil
}

// probe executes one probe op against a borrowed searcher handle. It is the
// single implementation behind both the HTTP handler and the loopback
// transport. The response's Stats carry the probe's counter delta; the
// shard's lifetime counters accumulate it too.
func (s *ShardServer) probe(ctx context.Context, op Op, req *ProbeRequest) (*ProbeResponse, error) {
	if req.K <= 0 {
		return nil, fmt.Errorf("k must be positive, got %d", req.K)
	}
	if math.IsNaN(req.ThresholdSq) {
		return nil, fmt.Errorf("NaN threshold")
	}
	h, err := s.rel.AcquireCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer h.Release()

	var delta stats.Counters
	p := geom.Point{X: req.X, Y: req.Y}
	resp := &ProbeResponse{}
	switch op {
	case OpCount:
		resp.Count = h.S.CountStrictlyCloser(p, req.K, req.ThresholdSq, &delta)
	case OpWithin:
		nb := h.S.NeighborhoodWithinSq(p, req.K, req.ThresholdSq, &delta)
		s.appendCandidates(&resp.Candidates, p, nb.Points)
	default:
		nb := h.S.Neighborhood(p, req.K, &delta)
		s.appendCandidates(&resp.Candidates, p, nb.Points)
	}
	resp.Stats = s.account(&delta)
	s.probes[op].Add(1)
	return resp, nil
}

// probeBatch answers a batch request by running the shard's searcher once
// per focal, in input order, behind one borrowed handle: focal i's
// candidates are exactly the single probe's, and the response's Stats sum
// the per-focal deltas. Like probe, it backs both the HTTP handler and the
// loopback transport.
func (s *ShardServer) probeBatch(ctx context.Context, req *BatchProbeRequest) (*BatchProbeResponse, error) {
	if err := req.check(s.rel.Len()); err != nil {
		return nil, err
	}
	h, err := s.rel.AcquireCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer h.Release()

	var delta stats.Counters
	resp := &BatchProbeResponse{Off: make([]int, 1, len(req.Xs)+1)}
	for i := range req.Xs {
		p := geom.Point{X: req.Xs[i], Y: req.Ys[i]}
		var nb *locality.Neighborhood
		if req.ThresholdsSq != nil {
			nb = h.S.NeighborhoodWithinSq(p, req.K, req.ThresholdsSq[i], &delta)
		} else {
			nb = h.S.Neighborhood(p, req.K, &delta)
		}
		s.appendCandidates(&resp.Candidates, p, nb.Points)
		resp.Off = append(resp.Off, len(resp.IDs))
	}
	resp.Stats = s.account(&delta)
	s.probes[OpBatch].Add(1)
	s.batchFocals.Add(int64(len(req.Xs)))
	return resp, nil
}

// account folds one request's counter delta into the shard's lifetime
// counters and returns it in wire form.
func (s *ShardServer) account(delta *stats.Counters) WireStats {
	s.counters.Add(delta)
	d := delta.Snapshot()
	return WireStats{
		Neighborhoods:  d.Neighborhoods,
		BlocksScanned:  d.BlocksScanned,
		PointsCompared: d.PointsCompared,
		BlocksPruned:   d.BlocksPruned,
		OuterSkipped:   d.OuterSkipped,
	}
}

// appendCandidates encodes a neighborhood's points as wire candidates:
// stable ID, coordinates, and the squared distance to the probe center
// recomputed from coordinates (exactly the comparison key of the
// coordinator's merge).
func (s *ShardServer) appendCandidates(c *Candidates, center geom.Point, pts []geom.Point) {
	// The neighborhood's Dists are sqrt values; the wire carries dSq, the
	// exact key, so recompute it from coordinates relative to the center.
	// The coordinator restores Dists = Sqrt(dSq).
	for _, p := range pts {
		c.IDs = append(c.IDs, s.idOf[p])
		c.Xs = append(c.Xs, p.X)
		c.Ys = append(c.Ys, p.Y)
		c.DSqs = append(c.DSqs, center.DistSq(p))
	}
}

// handleProbe decodes, executes, and encodes one probe op.
func (s *ShardServer) handleProbe(op Op) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req ProbeRequest
		if !s.decode(w, r, &req) {
			return
		}
		defer s.recoverCancel(w)
		resp, err := s.probe(r.Context(), op, &req)
		s.reply(w, r, resp, err)
	}
}

// handleBatch decodes, executes, and encodes one batch probe.
func (s *ShardServer) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchProbeRequest
	if !s.decode(w, r, &req) {
		return
	}
	defer s.recoverCancel(w)
	resp, err := s.probeBatch(r.Context(), &req)
	s.reply(w, r, resp, err)
}

// decode reads a probe request body — POST only, at most maxRequestBytes,
// no unknown fields — answering the error itself when it reports false.
func (s *ShardServer) decode(w http.ResponseWriter, r *http.Request, req any) bool {
	if r.Method != http.MethodPost {
		s.error(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		s.error(w, http.StatusBadRequest, "malformed probe request: "+err.Error())
		return false
	}
	return true
}

// recoverCancel contains a cancellation checkpoint's unwind — the client's
// context died mid-scan (disconnect, hedge loser cancellation) — to this
// request. Deferred by the probe handlers.
func (s *ShardServer) recoverCancel(w http.ResponseWriter) {
	if rec := recover(); rec != nil {
		if _, ok := rec.(*fault.Cancel); ok {
			s.error(w, http.StatusGatewayTimeout, "probe canceled")
			return
		}
		panic(rec)
	}
}

// reply writes a probe's response, or its error: 400 for a rejected
// request, 504 when the request's context ended first.
func (s *ShardServer) reply(w http.ResponseWriter, r *http.Request, resp any, err error) {
	if err != nil {
		status := http.StatusBadRequest
		if r.Context().Err() != nil {
			status = http.StatusGatewayTimeout
		}
		s.error(w, status, err.Error())
		return
	}
	s.write(w, resp)
}

func (s *ShardServer) handleInfo(w http.ResponseWriter, r *http.Request) {
	info := s.info()
	s.write(w, &info)
}

func (s *ShardServer) handleBlocks(w http.ResponseWriter, r *http.Request) {
	s.write(w, &BlocksResponse{Blocks: s.blockHeaders()})
}

func (s *ShardServer) handleBlock(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(r.URL.Query().Get("i"))
	if err != nil {
		s.error(w, http.StatusBadRequest, "block index ?i=N required")
		return
	}
	resp, err := s.blockPoints(i)
	if err != nil {
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	s.write(w, resp)
}

func (s *ShardServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(`{"status":"ok"}` + "\n"))
}

// shardMetrics is the /metrics body of a shard process.
// Probes counts requests per route; BatchFocals counts the focals the
// batch requests carried, so BatchFocals / Probes["neighborhood-batch"] is
// the mean number of focals per batch round trip.
type shardMetrics struct {
	Info         Info             `json:"info"`
	Probes       map[string]int64 `json:"probes"`
	BatchFocals  int64            `json:"batch_focals"`
	BlockFetches int64            `json:"block_fetches"`
	Errors       int64            `json:"errors"`
	Stats        stats.Counters   `json:"stats"`
}

func (s *ShardServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	probes := make(map[string]int64, len(s.probes))
	for op := range s.probes {
		probes[Op(op).String()] = s.probes[op].Load()
	}
	m := shardMetrics{
		Info:         s.info(),
		Probes:       probes,
		BatchFocals:  s.batchFocals.Load(),
		BlockFetches: s.blocks.Load(),
		Errors:       s.errs.Load(),
		Stats:        s.counters.Snapshot(),
	}
	s.write(w, &m)
}

func (s *ShardServer) write(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *ShardServer) error(w http.ResponseWriter, status int, msg string) {
	s.errs.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(wireError{Error: msg})
}

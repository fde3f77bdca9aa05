// Package server is the HTTP/JSON query front-end of the twoknn engine: it
// holds one query source (single, sharded or remote relation) per named
// dataset and routes every public entry point — including the batched
// kNN-select, whose route adds an epoch-keyed result cache and single-flight
// request coalescing — through typed request/response structs that carry
// stable int32 point IDs plus coordinates.
//
// The wire layer adds nothing to the answer — the differential battery in
// server_test.go holds every route byte-identical (after canonical sort) to
// the direct in-process call — and maps the engine's typed request-lifecycle
// errors onto statuses:
//
//	ErrSearchersExhausted  → 429 + Retry-After   (bounded pool shed load)
//	ErrQueryCanceled       → 504                 (deadline expired mid-query)
//	ErrShardUnavailable    → 503 + Retry-After   (remote replica set exhausted)
//	*QueryPanicError       → 500                 (worker panic, process lives)
//	ErrNilRelation, ErrNonPositiveK, malformed JSON → 400
//
// Admission control is two-layered: an optional per-dataset inflight gate
// sheds excess requests with an immediate 429 (never queueing them), and
// underneath it a dataset built with twoknn.WithMaxSearchers sheds via the
// engine's own bounded-pool deadline path. Every request runs under a
// context deadline resolved per dataset: the ceiling is the server budget
// lowered by every involved dataset's MaxTimeoutMS, and within it the
// request's timeout_ms (or, absent one, the smallest involved dataset's
// DefaultTimeoutMS) picks the actual deadline — so no query outlives its
// caller's patience or its dataset's latency contract.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	twoknn "repro"
	"repro/internal/qcache"
)

// Config parameterizes a Server.
type Config struct {
	// DefaultTimeout is the per-request evaluation budget; a request's
	// timeout_ms can only shorten it. Zero means 10 seconds.
	DefaultTimeout time.Duration

	// MaxInflight bounds the number of requests concurrently evaluating
	// against any one dataset; excess requests are shed with 429 +
	// Retry-After immediately instead of queueing. Zero leaves admission
	// to the engine's searcher pools alone.
	MaxInflight int

	// RetryAfter is the Retry-After hint on 429 responses, rounded up to
	// whole seconds. Zero means 1 second.
	RetryAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// dataset is one registered query source plus the serving-side state the
// engine does not carry: the admission gate, the coordinate→stable-ID
// render table the response codec resolves rows through, and the epoch-keyed
// result cache of the batch route.
type dataset struct {
	name string
	src  twoknn.Source

	// gate admits at most cap(gate) concurrent requests when non-nil;
	// TryAcquire semantics — a full gate sheds, never queues.
	gate chan struct{}

	// defaultTimeout, when positive, is this dataset's evaluation budget for
	// requests that carry no timeout_ms; maxTimeout, when positive, caps any
	// request's budget (even an explicit timeout_ms cannot exceed it);
	// retryAfter, when positive, overrides the server-wide Retry-After hint
	// on shed (429) and shard-unavailable (503) responses touching this
	// dataset.
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	retryAfter     time.Duration

	// table is the current render table; stale the moment src's epoch moves
	// past its tag, and rebuilt lazily by render(). Never nil after Register.
	table atomic.Pointer[renderTable]

	// cache memoizes per-focal batch results, as rendered rows, keyed by
	// (epoch, focal, k, shape); see internal/qcache. Entries from a stale
	// epoch become unreachable the moment src's epoch is bumped.
	cache *qcache.Cache[[]PointRow]

	// stats accumulates the engine's operation counters across every
	// request served from this dataset (atomic; see twoknn.WithStats).
	stats twoknn.Stats
}

// renderTable resolves result points to wire rows for one epoch of a
// dataset: coordinates → smallest stable ID, so co-located duplicates render
// deterministically no matter which copy an algorithm returned. Mutable
// relations retire a table on every mutation batch; static and sharded
// sources keep their Register-time table forever.
type renderTable struct {
	epoch uint64
	idOf  map[twoknn.Point]int32
}

func newRenderTable(epoch uint64, pts []twoknn.Point, ids []int32) *renderTable {
	t := &renderTable{epoch: epoch, idOf: make(map[twoknn.Point]int32, len(pts))}
	for i, p := range pts {
		if old, ok := t.idOf[p]; !ok || ids[i] < old {
			t.idOf[p] = ids[i]
		}
	}
	return t
}

// row renders a result point with its stable ID.
func (t *renderTable) row(p twoknn.Point) PointRow {
	id, ok := t.idOf[p]
	if !ok {
		id = -1
	}
	return PointRow{ID: id, X: p.X, Y: p.Y}
}

// render returns a table no older than the epoch current when it was called,
// rebuilding from a coherent engine snapshot when a mutation has retired the
// stored one. Concurrent rebuilds race benignly: every stored table is
// self-consistent, and a last-writer tag that lags the live epoch only costs
// one extra rebuild.
func (d *dataset) render() *renderTable {
	epoch := d.src.Epoch()
	if t := d.table.Load(); t != nil && t.epoch == epoch {
		return t
	}
	var t *renderTable
	switch r := d.src.(type) {
	case *twoknn.Relation:
		pts, ids := r.PointsWithIDs()
		t = newRenderTable(epoch, pts, ids)
	case *twoknn.ShardedRelation:
		t = newRenderTable(epoch, r.Points(), r.PointIDs())
	case *twoknn.RemoteRelation:
		// Fetched once through the transport envelope and cached by the
		// relation; an unreachable shard leaves an empty table (rows then
		// render with ID -1) rather than failing the registration.
		t = newRenderTable(epoch, r.Points(), r.PointIDs())
	default: // Register rejects other source types
		t = newRenderTable(epoch, nil, nil)
	}
	d.table.Store(t)
	return t
}

// tryAcquire claims an admission slot; the zero gate always admits.
func (d *dataset) tryAcquire() bool {
	if d == nil || d.gate == nil {
		return true
	}
	select {
	case d.gate <- struct{}{}:
		return true
	default:
		return false
	}
}

// release returns an admission slot.
func (d *dataset) release() {
	if d != nil && d.gate != nil {
		<-d.gate
	}
}

// Server routes query requests against a registry of named datasets. Create
// with New, add datasets with Register, and serve Handler(); all three are
// safe for concurrent use (datasets may be registered while serving).
type Server struct {
	cfg     Config
	metrics *metrics

	mu       sync.RWMutex
	datasets map[string]*dataset

	// flights coalesces identical concurrent batch requests: the first
	// request with a key becomes the leader and evaluates; followers wait on
	// its done channel and share the response. Keys are the canonical
	// re-encoding of the decoded request, so "identical" means
	// field-for-field equal.
	flightMu sync.Mutex
	flights  map[string]*flightCall
}

// flightCall is one in-flight coalesced evaluation. waiters counts the
// followers currently parked on done (an observability hook; the coalescing
// tests synchronize on it).
type flightCall struct {
	done    chan struct{}
	waiters atomic.Int32
	resp    QueryResponse
	err     error
}

// New builds a Server with no datasets.
func New(cfg Config) *Server {
	return &Server{
		cfg:      cfg.withDefaults(),
		metrics:  newMetrics(),
		datasets: make(map[string]*dataset),
		flights:  make(map[string]*flightCall),
	}
}

// DatasetOptions are per-dataset overrides of the server-wide Config.
type DatasetOptions struct {
	// MaxInflight overrides Config.MaxInflight for this dataset: positive
	// bounds this dataset's concurrent requests, negative disables the gate
	// even when the server has one, zero inherits the server setting. The
	// knnserve dataset spec grammar sets it via a "max_inflight=N" option.
	MaxInflight int

	// CacheCapacity bounds the dataset's batch result cache in entries;
	// zero selects the qcache default.
	CacheCapacity int

	// DefaultTimeoutMS, when positive, is the evaluation budget (in
	// milliseconds) for requests against this dataset that carry no
	// timeout_ms of their own; zero inherits the server's DefaultTimeout.
	// The spec grammar sets it via "timeout_ms=N".
	DefaultTimeoutMS int64

	// MaxTimeoutMS, when positive, caps every request's budget against this
	// dataset in milliseconds — an explicit request timeout_ms cannot
	// exceed it (nor can the server default). The spec grammar sets it via
	// "max_timeout_ms=N".
	MaxTimeoutMS int64

	// RetryAfterMS, when positive, overrides the server-wide Retry-After
	// hint (in milliseconds, rounded up to whole seconds on the wire) on
	// 429 shed and 503 shard-unavailable responses touching this dataset.
	// The spec grammar sets it via "retry_after_ms=N".
	RetryAfterMS int64
}

// Register adds src under name, building the stable-ID mapping for response
// rows. Registering a name twice or a nil source is an error.
func (s *Server) Register(name string, src twoknn.Source) error {
	return s.RegisterWithOptions(name, src, DatasetOptions{})
}

// RegisterWithOptions is Register with per-dataset overrides.
func (s *Server) RegisterWithOptions(name string, src twoknn.Source, o DatasetOptions) error {
	if name == "" {
		return fmt.Errorf("server: dataset name must be non-empty")
	}
	if src == nil {
		return fmt.Errorf("server: dataset %q: %w", name, twoknn.ErrNilRelation)
	}

	switch src.(type) {
	case *twoknn.Relation, *twoknn.ShardedRelation, *twoknn.RemoteRelation:
	default:
		return fmt.Errorf("server: dataset %q has unsupported source type %T", name, src)
	}
	if o.DefaultTimeoutMS < 0 || o.MaxTimeoutMS < 0 || o.RetryAfterMS < 0 {
		return fmt.Errorf("server: dataset %q: negative timeout/retry-after override", name)
	}
	if o.DefaultTimeoutMS > 0 && o.MaxTimeoutMS > 0 && o.DefaultTimeoutMS > o.MaxTimeoutMS {
		return fmt.Errorf("server: dataset %q: timeout_ms %d exceeds max_timeout_ms %d",
			name, o.DefaultTimeoutMS, o.MaxTimeoutMS)
	}

	d := &dataset{
		name:           name,
		src:            src,
		cache:          qcache.New[[]PointRow](o.CacheCapacity),
		defaultTimeout: time.Duration(o.DefaultTimeoutMS) * time.Millisecond,
		maxTimeout:     time.Duration(o.MaxTimeoutMS) * time.Millisecond,
		retryAfter:     time.Duration(o.RetryAfterMS) * time.Millisecond,
	}
	d.render() // build the initial table eagerly, off the serving path
	inflight := s.cfg.MaxInflight
	if o.MaxInflight != 0 {
		inflight = o.MaxInflight
	}
	if inflight > 0 {
		d.gate = make(chan struct{}, inflight)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.datasets[name]; dup {
		return fmt.Errorf("server: dataset %q already registered", name)
	}
	s.datasets[name] = d
	return nil
}

// DatasetNames returns the registered names, sorted.
func (s *Server) DatasetNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.datasets))
	for n := range s.datasets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// lookup resolves a dataset name; a miss returns nil (the handler passes the
// nil source into the engine, whose ErrNilRelation maps to 400).
func (s *Server) lookup(name string) *dataset {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.datasets[name]
}

// Handler returns the routing handler:
//
//	POST /v1/query/knn-select         POST /v1/query/two-selects
//	POST /v1/query/knn-select-batch   POST /v1/query/unchained-joins
//	POST /v1/query/knn-join           POST /v1/query/chained-joins
//	POST /v1/query/select-inner-join  POST /v1/query/range-inner-join
//	POST /v1/query/select-outer-join
//	POST /v1/data/insert              POST /v1/data/remove
//	GET  /metrics                     GET  /healthz
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query/knn-select", s.handleKNNSelect)
	mux.HandleFunc("POST /v1/query/knn-select-batch", s.handleKNNSelectBatch)
	mux.HandleFunc("POST /v1/query/knn-join", s.handleKNNJoin)
	mux.HandleFunc("POST /v1/query/select-inner-join", s.handleSelectInnerJoin)
	mux.HandleFunc("POST /v1/query/select-outer-join", s.handleSelectOuterJoin)
	mux.HandleFunc("POST /v1/query/two-selects", s.handleTwoSelects)
	mux.HandleFunc("POST /v1/query/unchained-joins", s.handleUnchainedJoins)
	mux.HandleFunc("POST /v1/query/chained-joins", s.handleChainedJoins)
	mux.HandleFunc("POST /v1/query/range-inner-join", s.handleRangeInnerJoin)
	mux.HandleFunc("POST /v1/data/insert", s.handleInsert)
	mux.HandleFunc("POST /v1/data/remove", s.handleRemove)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// admit claims an admission slot on every distinct resolved dataset of the
// request (Try semantics, so no ordering concern — a full gate sheds
// immediately). On success the returned release undoes all claims; on
// failure nothing stays claimed and admit reports false.
func admit(ds ...*dataset) (release func(), ok bool) {
	seen := make(map[*dataset]bool, len(ds))
	claimed := make([]*dataset, 0, len(ds))
	for _, d := range ds {
		if d == nil || seen[d] {
			continue
		}
		seen[d] = true
		if !d.tryAcquire() {
			for _, c := range claimed {
				c.release()
			}
			return nil, false
		}
		claimed = append(claimed, d)
	}
	return func() {
		for _, c := range claimed {
			c.release()
		}
	}, true
}

// source unwraps a dataset into its engine source; nil datasets stay nil
// sources so the engine's ErrNilRelation taxonomy fires.
func source(d *dataset) twoknn.Source {
	if d == nil {
		return nil
	}
	return d.src
}

// serve is the request lifecycle every query handler runs: strict decode,
// admission, deadline budget, evaluation, and the error→status mapping.
// plan resolves the decoded request's datasets and returns the evaluation
// closure, which runs under the request context and fills the response
// envelope.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, route string, req Request,
	plan func() ([]*dataset, func(ctx context.Context) (QueryResponse, error))) {
	m := s.metrics.route(route)
	m.requests.Add(1)

	if err := DecodeRequest(r.Body, req); err != nil {
		m.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Code: "bad_request"})
		return
	}
	datasets, run := plan()

	release, ok := admit(datasets...)
	if !ok {
		s.shed(w, m, s.retryAfterFor(datasets...), fmt.Errorf("server: dataset admission gate full"))
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), s.budgetFor(datasets, timeoutOf(req)))
	defer cancel()

	resp, err := run(ctx)
	if err != nil {
		s.writeQueryError(w, m, s.retryAfterFor(datasets...), err)
		return
	}
	m.ok.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// budgetFor resolves a request's evaluation budget against its datasets'
// latency contracts. The ceiling is the server's DefaultTimeout lowered by
// every involved dataset's MaxTimeout; within that ceiling the request's
// own timeout_ms wins when present, and otherwise the smallest involved
// dataset DefaultTimeout (falling back to the ceiling itself). A request
// can therefore always shorten its budget but never escape a dataset's cap.
func (s *Server) budgetFor(ds []*dataset, reqTimeoutMS int64) time.Duration {
	ceiling := s.cfg.DefaultTimeout
	for _, d := range ds {
		if d != nil && d.maxTimeout > 0 && d.maxTimeout < ceiling {
			ceiling = d.maxTimeout
		}
	}
	want := ceiling
	if reqTimeoutMS > 0 {
		want = time.Duration(reqTimeoutMS) * time.Millisecond
	} else {
		for _, d := range ds {
			if d != nil && d.defaultTimeout > 0 && d.defaultTimeout < want {
				want = d.defaultTimeout
			}
		}
	}
	if want < ceiling {
		return want
	}
	return ceiling
}

// retryAfterFor resolves the Retry-After hint for a response touching ds:
// the smallest positive per-dataset override, else the server-wide setting.
func (s *Server) retryAfterFor(ds ...*dataset) time.Duration {
	ra := time.Duration(0)
	for _, d := range ds {
		if d != nil && d.retryAfter > 0 && (ra == 0 || d.retryAfter < ra) {
			ra = d.retryAfter
		}
	}
	if ra == 0 {
		ra = s.cfg.RetryAfter
	}
	return ra
}

// timeoutOf extracts the embedded Common.TimeoutMS.
func timeoutOf(req Request) int64 {
	switch r := req.(type) {
	case *KNNSelectRequest:
		return r.TimeoutMS
	case *KNNSelectBatchRequest:
		return r.TimeoutMS
	case *KNNJoinRequest:
		return r.TimeoutMS
	case *SelectInnerJoinRequest:
		return r.TimeoutMS
	case *SelectOuterJoinRequest:
		return r.TimeoutMS
	case *TwoSelectsRequest:
		return r.TimeoutMS
	case *UnchainedJoinsRequest:
		return r.TimeoutMS
	case *ChainedJoinsRequest:
		return r.TimeoutMS
	case *RangeInnerJoinRequest:
		return r.TimeoutMS
	default:
		return 0
	}
}

// singleFlight coalesces concurrent evaluations sharing a key: the first
// caller computes under its own context, every concurrent caller with the
// same key waits for that result and shares it (response, error and all).
// The key is deleted before done closes, so a request arriving after the
// leader finished starts a fresh flight — coalescing only ever spans truly
// concurrent work and never serves stale answers (result reuse across time
// is the epoch-keyed cache's job). A waiter whose own context expires first
// gives up with the engine's cancellation error, mapping to 504.
func (s *Server) singleFlight(ctx context.Context, key string, compute func(context.Context) (QueryResponse, error)) (QueryResponse, error) {
	s.flightMu.Lock()
	if c, ok := s.flights[key]; ok {
		c.waiters.Add(1)
		s.flightMu.Unlock()
		defer c.waiters.Add(-1)
		select {
		case <-c.done:
			return c.resp, c.err
		case <-ctx.Done():
			return QueryResponse{}, fmt.Errorf("%w: %v while waiting on a coalesced request", twoknn.ErrQueryCanceled, ctx.Err())
		}
	}
	c := &flightCall{done: make(chan struct{})}
	s.flights[key] = c
	s.flightMu.Unlock()

	c.resp, c.err = compute(ctx)

	s.flightMu.Lock()
	delete(s.flights, key)
	s.flightMu.Unlock()
	close(c.done)
	return c.resp, c.err
}

// shed writes the 429 shed-load response with its Retry-After hint.
func (s *Server) shed(w http.ResponseWriter, m *routeMetrics, retryAfter time.Duration, err error) {
	m.shed.Add(1)
	w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
	writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: err.Error(), Code: "shed_load"})
}

// retryAfterSeconds renders a Retry-After duration as whole seconds,
// rounded up (the header's granularity).
func retryAfterSeconds(d time.Duration) string {
	return strconv.FormatInt(int64((d+time.Second-1)/time.Second), 10)
}

// writeQueryError maps the engine's typed error taxonomy onto HTTP statuses.
// Order matters: a bounded-pool shed error chains both ErrSearchersExhausted
// and ErrQueryCanceled, and the more specific shed-load mapping wins.
func (s *Server) writeQueryError(w http.ResponseWriter, m *routeMetrics, retryAfter time.Duration, err error) {
	var panicErr *twoknn.QueryPanicError
	switch {
	case errors.Is(err, twoknn.ErrSearchersExhausted):
		s.shed(w, m, retryAfter, err)
	case errors.Is(err, twoknn.ErrQueryCanceled):
		m.deadline.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: err.Error(), Code: "deadline"})
	case errors.Is(err, twoknn.ErrShardUnavailable):
		// A remote dataset's replica set is exhausted: the answer cannot be
		// exact, so the coordinator fails closed with 503 and invites a
		// retry once replicas recover or breakers half-open.
		m.unavailable.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error(), Code: "shard_unavailable"})
	case errors.As(err, &panicErr):
		m.panics.Add(1)
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Code: "panic"})
	case errors.Is(err, twoknn.ErrNilRelation), errors.Is(err, twoknn.ErrNonPositiveK):
		m.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Code: "bad_request"})
	default:
		m.internal.Add(1)
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Code: "internal"})
	}
}

package server

import (
	"context"
	"fmt"
	"net/http"
	"slices"

	twoknn "repro"
	"repro/internal/qcache"
)

// queryOpts assembles the engine options every route shares: the request
// context (deadline + cancellation), per-request stats, the forced algorithm
// and, when asked for, an EXPLAIN target.
func queryOpts(ctx context.Context, c *Common, st *twoknn.Stats) ([]twoknn.QueryOption, *string) {
	opts := []twoknn.QueryOption{
		twoknn.WithContext(ctx),
		twoknn.WithStats(st),
		twoknn.WithAlgorithm(c.algorithmOption()),
	}
	var explain *string
	if c.Explain {
		explain = new(string)
		opts = append(opts, twoknn.WithExplain(explain))
	}
	return opts, explain
}

// finish folds the request's counters into every distinct operand dataset's
// lifetime totals and fills the envelope's shared fields.
func finish(resp QueryResponse, st *twoknn.Stats, explain *string, ds ...*dataset) QueryResponse {
	folded := make(map[*dataset]bool, len(ds))
	for _, d := range ds {
		if d != nil && !folded[d] {
			folded[d] = true
			d.stats.Add(st)
		}
	}
	resp.Stats = st.Snapshot()
	if explain != nil {
		resp.Explain = *explain
	}
	return resp
}

// pointRows renders a point result against one dataset's current render
// table (one epoch-check per call, not per point).
func pointRows(d *dataset, pts []twoknn.Point) []PointRow {
	rt := d.render()
	rows := make([]PointRow, len(pts))
	for i, p := range pts {
		rows[i] = rt.row(p)
	}
	return rows
}

// pairRows renders a join result: Left resolves in the outer dataset,
// Right in the inner.
func pairRows(outer, inner *dataset, pairs []twoknn.Pair) []PairRow {
	ro, ri := outer.render(), inner.render()
	rows := make([]PairRow, len(pairs))
	for i, pr := range pairs {
		rows[i] = PairRow{Left: ro.row(pr.Left), Right: ri.row(pr.Right)}
	}
	return rows
}

// tripleRows renders a two-join result; each column resolves in its own
// dataset.
func tripleRows(a, b, c *dataset, ts []twoknn.Triple) []TripleRow {
	ra, rb, rc := a.render(), b.render(), c.render()
	rows := make([]TripleRow, len(ts))
	for i, tr := range ts {
		rows[i] = TripleRow{A: ra.row(tr.A), B: rb.row(tr.B), C: rc.row(tr.C)}
	}
	return rows
}

func (s *Server) handleKNNSelect(w http.ResponseWriter, r *http.Request) {
	var req KNNSelectRequest
	s.serve(w, r, "knn-select", &req, func() ([]*dataset, func(context.Context) (QueryResponse, error)) {
		d := s.lookup(req.Dataset)
		return []*dataset{d}, func(ctx context.Context) (QueryResponse, error) {
			var st twoknn.Stats
			opts, explain := queryOpts(ctx, &req.Common, &st)
			pts, err := twoknn.KNNSelect(source(d), req.F.Point(), req.K, opts...)
			if err != nil {
				return QueryResponse{}, err
			}
			rows := pointRows(d, pts)
			return finish(QueryResponse{Points: rows, Count: len(rows)}, &st, explain, d), nil
		}
	})
}

func (s *Server) handleKNNSelectBatch(w http.ResponseWriter, r *http.Request) {
	var req KNNSelectBatchRequest
	s.serve(w, r, "knn-select-batch", &req, func() ([]*dataset, func(context.Context) (QueryResponse, error)) {
		d := s.lookup(req.Dataset)
		return []*dataset{d}, func(ctx context.Context) (QueryResponse, error) {
			// Coalesce identical concurrent requests: the flight key is the
			// request's canonical re-encoding, so any field difference
			// (focals, k, algorithm, explain, timeout) splits flights.
			key, err := EncodeRequest(&req)
			if err != nil {
				return QueryResponse{}, err
			}
			return s.singleFlight(ctx, string(key), func(ctx context.Context) (QueryResponse, error) {
				return s.evalKNNSelectBatch(ctx, d, &req)
			})
		}
	})
}

// evalKNNSelectBatch is the batch route's leader evaluation: probe the
// dataset's epoch-keyed result cache per focal, run the engine's batched
// driver once over all misses, render them and store the rendered rows back.
// EXPLAIN requests bypass the cache so the rendered plan reflects a real
// evaluation.
func (s *Server) evalKNNSelectBatch(ctx context.Context, d *dataset, req *KNNSelectBatchRequest) (QueryResponse, error) {
	var st twoknn.Stats
	opts, explain := queryOpts(ctx, &req.Common, &st)

	batches := make([][]PointRow, len(req.Focals))
	missIdx := make([]int, 0, len(req.Focals))
	missFocals := make([]twoknn.Point, 0, len(req.Focals))
	var epoch uint64
	useCache := d != nil && !req.Explain
	if useCache {
		epoch = d.src.Epoch()
	}
	cacheKey := func(f PointArg) qcache.Key {
		return qcache.Key{Epoch: epoch, FX: f.X, FY: f.Y, K: req.K, Shape: qcache.ShapeKNNSelect}
	}
	for i, f := range req.Focals {
		if useCache {
			if rows, ok := d.cache.Get(cacheKey(f)); ok {
				st.AddCacheHit()
				batches[i] = rows
				continue
			}
			st.AddCacheMiss()
		}
		missIdx = append(missIdx, i)
		missFocals = append(missFocals, f.Point())
	}

	if len(missFocals) > 0 || d == nil {
		res, err := twoknn.KNNSelectBatch(source(d), missFocals, req.K, opts...)
		if err != nil {
			return QueryResponse{}, err
		}
		for j, i := range missIdx {
			rows := pointRows(d, res[j])
			batches[i] = rows
			// A row the render table could not resolve (ID -1) is never
			// memoized: a later epoch may resolve it.
			if useCache && !slices.ContainsFunc(rows, func(r PointRow) bool { return r.ID < 0 }) {
				d.cache.Put(cacheKey(req.Focals[i]), rows)
			}
		}
	}

	count := 0
	for _, rows := range batches {
		count += len(rows)
	}
	return finish(QueryResponse{Batches: batches, Count: count}, &st, explain, d), nil
}

func (s *Server) handleKNNJoin(w http.ResponseWriter, r *http.Request) {
	var req KNNJoinRequest
	s.serve(w, r, "knn-join", &req, func() ([]*dataset, func(context.Context) (QueryResponse, error)) {
		outer, inner := s.lookup(req.Outer), s.lookup(req.Inner)
		return []*dataset{outer, inner}, func(ctx context.Context) (QueryResponse, error) {
			var st twoknn.Stats
			opts, explain := queryOpts(ctx, &req.Common, &st)
			pairs, err := twoknn.KNNJoin(source(outer), source(inner), req.K, opts...)
			if err != nil {
				return QueryResponse{}, err
			}
			rows := pairRows(outer, inner, pairs)
			return finish(QueryResponse{Pairs: rows, Count: len(rows)}, &st, explain, outer, inner), nil
		}
	})
}

func (s *Server) handleSelectInnerJoin(w http.ResponseWriter, r *http.Request) {
	var req SelectInnerJoinRequest
	s.serve(w, r, "select-inner-join", &req, func() ([]*dataset, func(context.Context) (QueryResponse, error)) {
		outer, inner := s.lookup(req.Outer), s.lookup(req.Inner)
		return []*dataset{outer, inner}, func(ctx context.Context) (QueryResponse, error) {
			var st twoknn.Stats
			opts, explain := queryOpts(ctx, &req.Common, &st)
			pairs, err := twoknn.SelectInnerJoin(source(outer), source(inner), req.F.Point(), req.KJoin, req.KSel, opts...)
			if err != nil {
				return QueryResponse{}, err
			}
			rows := pairRows(outer, inner, pairs)
			return finish(QueryResponse{Pairs: rows, Count: len(rows)}, &st, explain, outer, inner), nil
		}
	})
}

func (s *Server) handleSelectOuterJoin(w http.ResponseWriter, r *http.Request) {
	var req SelectOuterJoinRequest
	s.serve(w, r, "select-outer-join", &req, func() ([]*dataset, func(context.Context) (QueryResponse, error)) {
		outer, inner := s.lookup(req.Outer), s.lookup(req.Inner)
		return []*dataset{outer, inner}, func(ctx context.Context) (QueryResponse, error) {
			var st twoknn.Stats
			opts, explain := queryOpts(ctx, &req.Common, &st)
			pairs, err := twoknn.SelectOuterJoin(source(outer), source(inner), req.F.Point(), req.KSel, req.KJoin, opts...)
			if err != nil {
				return QueryResponse{}, err
			}
			rows := pairRows(outer, inner, pairs)
			return finish(QueryResponse{Pairs: rows, Count: len(rows)}, &st, explain, outer, inner), nil
		}
	})
}

func (s *Server) handleTwoSelects(w http.ResponseWriter, r *http.Request) {
	var req TwoSelectsRequest
	s.serve(w, r, "two-selects", &req, func() ([]*dataset, func(context.Context) (QueryResponse, error)) {
		d := s.lookup(req.Dataset)
		return []*dataset{d}, func(ctx context.Context) (QueryResponse, error) {
			var st twoknn.Stats
			opts, explain := queryOpts(ctx, &req.Common, &st)
			pts, err := twoknn.TwoSelects(source(d), req.F1.Point(), req.K1, req.F2.Point(), req.K2, opts...)
			if err != nil {
				return QueryResponse{}, err
			}
			rows := pointRows(d, pts)
			return finish(QueryResponse{Points: rows, Count: len(rows)}, &st, explain, d), nil
		}
	})
}

func (s *Server) handleUnchainedJoins(w http.ResponseWriter, r *http.Request) {
	var req UnchainedJoinsRequest
	s.serve(w, r, "unchained-joins", &req, func() ([]*dataset, func(context.Context) (QueryResponse, error)) {
		a, b, c := s.lookup(req.A), s.lookup(req.B), s.lookup(req.C)
		return []*dataset{a, b, c}, func(ctx context.Context) (QueryResponse, error) {
			var st twoknn.Stats
			opts, explain := queryOpts(ctx, &req.Common, &st)
			ts, err := twoknn.UnchainedJoins(source(a), source(b), source(c), req.KAB, req.KCB, opts...)
			if err != nil {
				return QueryResponse{}, err
			}
			rows := tripleRows(a, b, c, ts)
			return finish(QueryResponse{Triples: rows, Count: len(rows)}, &st, explain, a, b, c), nil
		}
	})
}

func (s *Server) handleChainedJoins(w http.ResponseWriter, r *http.Request) {
	var req ChainedJoinsRequest
	s.serve(w, r, "chained-joins", &req, func() ([]*dataset, func(context.Context) (QueryResponse, error)) {
		a, b, c := s.lookup(req.A), s.lookup(req.B), s.lookup(req.C)
		return []*dataset{a, b, c}, func(ctx context.Context) (QueryResponse, error) {
			var st twoknn.Stats
			opts, explain := queryOpts(ctx, &req.Common, &st)
			ts, err := twoknn.ChainedJoins(source(a), source(b), source(c), req.KAB, req.KBC, opts...)
			if err != nil {
				return QueryResponse{}, err
			}
			rows := tripleRows(a, b, c, ts)
			return finish(QueryResponse{Triples: rows, Count: len(rows)}, &st, explain, a, b, c), nil
		}
	})
}

// mutable resolves a dataset name to its backing mutable relation. Sharded
// datasets are rejected: mutation routing across shards (re-partitioning on
// insert, cross-shard removes) is an open item, and silently mutating one
// shard would corrupt the partition.
func (s *Server) mutable(name string) (*dataset, *twoknn.Relation, error) {
	d := s.lookup(name)
	if d == nil {
		return nil, nil, fmt.Errorf("server: unknown dataset %q", name)
	}
	rel, ok := d.src.(*twoknn.Relation)
	if !ok {
		return nil, nil, fmt.Errorf("server: dataset %q is sharded; sharded datasets do not accept mutations", name)
	}
	return d, rel, nil
}

// serveMutation is the lifecycle shared by the data routes: strict decode,
// dataset resolution (mutability check included), admission, and the
// mutation itself. Mutations run under the same per-dataset gate as queries
// — a saturated dataset sheds writes too — but not under the request
// deadline: once admitted, a mutation batch is small and always completes.
func (s *Server) serveMutation(w http.ResponseWriter, r *http.Request, route string, req Request,
	dataset func() string, apply func(d *dataset, rel *twoknn.Relation) MutateResponse) {
	m := s.metrics.route(route)
	m.requests.Add(1)

	if err := DecodeRequest(r.Body, req); err != nil {
		m.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Code: "bad_request"})
		return
	}
	d, rel, err := s.mutable(dataset())
	if err != nil {
		m.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Code: "bad_request"})
		return
	}
	release, ok := admit(d)
	if !ok {
		s.shed(w, m, s.retryAfterFor(d), fmt.Errorf("server: dataset admission gate full"))
		return
	}
	defer release()

	resp := apply(d, rel)
	m.ok.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	s.serveMutation(w, r, "data-insert", &req, func() string { return req.Dataset },
		func(d *dataset, rel *twoknn.Relation) MutateResponse {
			pts := make([]twoknn.Point, len(req.Points))
			for i, p := range req.Points {
				pts[i] = p.Point()
			}
			ids := rel.Insert(pts...)
			return MutateResponse{IDs: ids, Epoch: rel.Epoch(), Len: rel.Len()}
		})
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	var req RemoveRequest
	s.serveMutation(w, r, "data-remove", &req, func() string { return req.Dataset },
		func(d *dataset, rel *twoknn.Relation) MutateResponse {
			removed := rel.Remove(req.IDs...)
			return MutateResponse{Removed: removed, Epoch: rel.Epoch(), Len: rel.Len()}
		})
}

func (s *Server) handleRangeInnerJoin(w http.ResponseWriter, r *http.Request) {
	var req RangeInnerJoinRequest
	s.serve(w, r, "range-inner-join", &req, func() ([]*dataset, func(context.Context) (QueryResponse, error)) {
		outer, inner := s.lookup(req.Outer), s.lookup(req.Inner)
		return []*dataset{outer, inner}, func(ctx context.Context) (QueryResponse, error) {
			var st twoknn.Stats
			opts, explain := queryOpts(ctx, &req.Common, &st)
			pairs, err := twoknn.RangeInnerJoin(source(outer), source(inner), req.Range.Rect(), req.KJoin, opts...)
			if err != nil {
				return QueryResponse{}, err
			}
			rows := pairRows(outer, inner, pairs)
			return finish(QueryResponse{Pairs: rows, Count: len(rows)}, &st, explain, outer, inner), nil
		}
	})
}

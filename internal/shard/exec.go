package shard

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/kernel"
	"repro/internal/locality"
	"repro/internal/stats"
)

// This file implements the scatter/gather execution drivers for the paper's
// five query shapes (kNN-select, select+kNN-join in both positions, two
// kNN-selects, unchained and chained two-join queries) plus the range-join
// extension, over Group operands that may be sharded, un-sharded, or a mix.
//
// Scatter: the outer side's tuples — shard block spans, chunks of a selected
// point list, or chunks of a first join's pairs — are claimed by a bounded
// worker crew through an atomic cursor; each worker holds a probe (one
// pooled searcher handle per inner shard) and generates candidates
// per-shard, merging them into exact global neighborhoods. A unit's probes
// are coalesced: each inner shard gets at most one batched call per MINDIST
// round of the unit — over a remote shard, one round trip — not one per
// outer tuple (see probe.eachNeighborhood).
//
// Gather: results are concatenated and canonically sorted (SortPairs /
// SortTriples order), which makes the output deterministic regardless of
// worker interleaving and — because every per-tuple result multiset is
// exactly the single-relation one — byte-identical to the un-sharded
// evaluation after the same sort. Workers append into private buffers, so
// the only cross-worker synchronization on the result path is the final
// concatenation.
//
// Extra workers degrade gracefully on bounded pools exactly like the core
// parallel driver: worker 0 blocks until it holds a full probe, the rest
// stand down if any inner shard's pool is at capacity.

// unit is one claimable piece of outer-side work: a shard block (point
// joins; local span or remote header with lazy fetch), a chunk of an
// explicit point list (select-outer-join), or a chunk of first-join pairs
// (chained joins).
type unit struct {
	blk   OuterBlock
	pts   []geom.Point
	pairs []core.Pair
}

// eachPoint calls fn for every point of a block- or point-list unit. Remote
// block points are fetched here — after the Block-Marking prune had its
// chance to discard the block on its header alone.
func (u unit) eachPoint(fn func(p geom.Point)) {
	if u.blk.Local != nil {
		xs, ys := u.blk.Local.XYs()
		for i := range xs {
			fn(geom.Point{X: xs[i], Y: ys[i]})
		}
		return
	}
	if u.blk.Fetch != nil {
		for _, p := range u.blk.Fetch() {
			fn(p)
		}
		return
	}
	for _, p := range u.pts {
		fn(p)
	}
}

// blockUnits lists every block of every shard of g, in shard-then-block
// order.
func blockUnits(ctx context.Context, g Group) []unit {
	var units []unit
	for _, m := range g.members {
		for _, b := range m.OuterBlocks(ctx) {
			units = append(units, unit{blk: b})
		}
	}
	return units
}

// pointUnits cuts pts into contiguous chunks (see chunkSize).
func pointUnits(pts []geom.Point, workers int) []unit {
	if len(pts) == 0 {
		return nil
	}
	chunk := chunkSize(len(pts), workers)
	units := make([]unit, 0, (len(pts)+chunk-1)/chunk)
	for start := 0; start < len(pts); start += chunk {
		end := min(start+chunk, len(pts))
		units = append(units, unit{pts: pts[start:end]})
	}
	return units
}

// pairUnits cuts pairs into contiguous chunks, preserving order within each.
func pairUnits(pairs []core.Pair, workers int) []unit {
	if len(pairs) == 0 {
		return nil
	}
	chunk := chunkSize(len(pairs), workers)
	units := make([]unit, 0, (len(pairs)+chunk-1)/chunk)
	for start := 0; start < len(pairs); start += chunk {
		end := min(start+chunk, len(pairs))
		units = append(units, unit{pairs: pairs[start:end]})
	}
	return units
}

// chunkSize is the unit size for n items: all of them for a sequential
// run, so each inner shard gets one batched call per scatter round;
// otherwise several chunks per worker for dynamic load balancing.
func chunkSize(n, workers int) int {
	if workers <= 1 {
		return n
	}
	return max(1, (n+workers*4-1)/(workers*4))
}

// emitFn consumes one unit, appending results to dst.
type emitFn[T any] func(u unit, dst []T) []T

// scatter fans units out across min(workers, len(units)) workers, each
// holding a probe on inner. newEmit builds a worker's emitter around its
// probe and counter shard (per-worker state like the chained-join cache
// lives in the closure). workers <= 1 runs sequentially on the caller's
// goroutine. The concatenated results are returned in arbitrary unit order;
// callers canonically sort in their gather step.
//
// A non-nil ctx bounds the whole scatter: probes bind to it, every claimed
// unit starts with a checkpoint, and expiry unwinds as a fault.Cancel panic
// after all handles are released and stat deltas folded. Worker panics —
// cooperative or genuine — never cross a goroutine boundary: the first
// fault is parked, the crew aborts at its next claim, and the fault resumes
// its unwind on the caller's goroutine once the crew is joined.
func scatter[T any](ctx context.Context, units []unit, inner Group, workers int, c *stats.Counters,
	newEmit func(pr *probe, ctr *stats.Counters) emitFn[T]) []T {

	if len(units) == 0 {
		return nil
	}
	if workers > len(units) {
		workers = len(units)
	}
	if workers <= 1 {
		pr := acquire(ctx, inner)
		defer pr.release(c)
		emit := newEmit(pr, c)
		var out []T
		for _, u := range units {
			pr.checkpoint()
			out = emit(u, out)
		}
		return out
	}

	bufs := make([][]T, workers)
	// Counter shards are individually allocated so adjacent workers' atomic
	// increments do not false-share; nil when the caller asked for no stats.
	var ctrs []*stats.Counters
	if c != nil {
		ctrs = make([]*stats.Counters, workers)
		for w := range ctrs {
			ctrs[w] = new(stats.Counters)
		}
	}
	var cursor atomic.Int64
	var flt fault.Slot
	var abort atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					flt.Store(fault.WrapPanic(r))
					abort.Store(true)
				}
			}()
			var pr *probe
			if w == 0 {
				pr = acquire(ctx, inner)
			} else {
				var ok bool
				if pr, ok = tryAcquire(ctx, inner); !ok {
					return // bounded pool at capacity; the crew degrades
				}
			}
			var ctr *stats.Counters
			if ctrs != nil {
				ctr = ctrs[w]
			}
			defer pr.release(ctr)
			emit := newEmit(pr, ctr)
			for {
				if abort.Load() {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= len(units) {
					return
				}
				pr.checkpoint()
				bufs[w] = emit(units[i], bufs[w])
			}
		}(w)
	}
	wg.Wait()
	for _, ctr := range ctrs {
		c.Add(ctr)
	}
	if r := flt.Load(); r != nil {
		// Faulted: no partial result escapes; the fault resumes unwinding on
		// the caller's goroutine for the public layer's recover.
		panic(r)
	}

	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if total == 0 {
		return nil
	}
	out := make([]T, 0, total)
	for _, b := range bufs {
		out = append(out, b...)
	}
	return out
}

// Strategy selects the candidate-generation plan for the select/range inner
// join drivers, mirroring the single-relation algorithms: Conceptual (no
// pruning), Counting (per-tuple count prune, Procedure 1 summed across
// shards) and BlockMarking (per-outer-block Non-Contributing test, Theorem 1
// applied with exact global neighborhoods).
type Strategy int

// The available strategies.
const (
	StrategyConceptual Strategy = iota
	StrategyCounting
	StrategyBlockMarking
)

// Select evaluates σ_{k,f} over the group: the exact global k nearest
// neighbors of f, in ascending (distance, X, Y) order — byte-identical to
// the single-relation KNNSelect.
func Select(ctx context.Context, g Group, f geom.Point, k int, c *stats.Counters) []geom.Point {
	pts, _ := selectWithRadius(ctx, g, f, k, c)
	return pts
}

// selectWithRadius is Select returning also the distance from f to the
// farthest selected point (0 for an empty result) — the threshold term the
// select-inner-join block marking needs.
func selectWithRadius(ctx context.Context, g Group, f geom.Point, k int, c *stats.Counters) ([]geom.Point, float64) {
	if k <= 0 {
		return nil, 0
	}
	pr := acquire(ctx, g)
	defer pr.release(c)
	pr.checkpoint()
	nbr := pr.neighborhood(f, k)
	out := make([]geom.Point, len(nbr.Points))
	copy(out, nbr.Points)
	return out, nbr.FarthestDist()
}

// TwoSelects evaluates σ_{k1,f1} ∩ σ_{k2,f2} over one group with the
// 2-kNN-select refinement evaluated per shard: the smaller-k predicate runs
// first (exact global merge), and the larger predicate's per-shard locality
// admits only blocks within the search threshold derived from the first
// answer. Results are byte-identical to the single-relation TwoSelects.
// conceptual selects the Figure 16 baseline (both neighborhoods in full)
// instead.
func TwoSelects(ctx context.Context, g Group, f1 geom.Point, k1 int, f2 geom.Point, k2 int, conceptual bool, c *stats.Counters) []geom.Point {
	if k1 <= 0 || k2 <= 0 {
		return nil
	}
	pr := acquire(ctx, g)
	defer pr.release(c)
	pr.checkpoint()
	if conceptual {
		nbr1 := pr.neighborhood(f1, k1).Clone()
		nbr2 := pr.neighborhood(f2, k2)
		return nbr1.Intersect(nbr2)
	}
	if k1 > k2 {
		f1, f2 = f2, f1
		k1, k2 = k2, k1
	}
	nbr1 := pr.neighborhood(f1, k1).Clone() // survives the second query below
	if nbr1.Len() == 0 {
		return nil
	}
	nbr2 := pr.neighborhoodWithinSq(f2, k2, nbr1.FarthestDistSqTo(f2))
	return nbr1.Intersect(nbr2)
}

// Join evaluates outer ⋈kNN inner by scatter/gather: outer shard blocks fan
// out across workers, every outer point gets its exact global neighborhood
// from the merged probe, and the gather canonically sorts the pairs. The
// result is the single-relation KNNJoin's multiset in SortPairs order.
func Join(ctx context.Context, outer, inner Group, k, workers int, c *stats.Counters) []core.Pair {
	if k <= 0 {
		return nil
	}
	out := join(ctx, outer, inner, k, workers, c)
	core.SortPairs(out)
	if out == nil {
		out = []core.Pair{} // match the single-relation non-nil contract
	}
	return out
}

// join is Join without the gather sort (and without the non-nil contract):
// the two-join drivers consume its output through order-insensitive steps
// (B-component grouping, chunked fan-out) and sort only their final
// triples, so sorting the intermediate pair sets would be wasted work.
func join(ctx context.Context, outer, inner Group, k, workers int, c *stats.Counters) []core.Pair {
	return scatter(ctx, blockUnits(ctx, outer), inner, workers, c,
		func(pr *probe, ctr *stats.Counters) emitFn[core.Pair] {
			return func(u unit, dst []core.Pair) []core.Pair {
				pr.eachNeighborhood(u, k, nil, func(e1 geom.Point, nbr *locality.Neighborhood) {
					for _, e2 := range nbr.Points {
						dst = append(dst, core.Pair{Left: e1, Right: e2})
					}
				})
				return dst
			}
		})
}

// SelectInnerJoin evaluates (outer ⋈kNN inner) ∩ (outer × σ_{kSel,f}(inner))
// by scatter/gather. The select gathers first (exact global σ set); the join
// side then fans outer blocks out with the chosen per-shard pruning
// strategy. Results are the single-relation multiset in SortPairs order.
func SelectInnerJoin(ctx context.Context, outer, inner Group, f geom.Point, kJoin, kSel int, strat Strategy, workers int, c *stats.Counters) []core.Pair {
	if kJoin <= 0 || kSel <= 0 {
		return nil
	}
	sel, fFarthest := selectWithRadius(ctx, inner, f, kSel, c)
	if len(sel) == 0 {
		return nil
	}
	sorted := sortedSet(sel)
	var selXs, selYs []float64
	if strat == StrategyCounting {
		// Only the Counting prune scans the flattened σ columns.
		selXs, selYs = geom.FlatXYs(sel)
	}

	out := scatter(ctx, blockUnits(ctx, outer), inner, workers, c,
		func(pr *probe, ctr *stats.Counters) emitFn[core.Pair] {
			var keep func(e1 geom.Point) bool
			if strat == StrategyCounting {
				// Squared threshold end-to-end, as in the core Counting
				// algorithm: exact ties stay exact. The batched MinDistSq
				// kernel over the flattened σ set matches
				// Neighborhood.NearestDistSqTo exactly (NaN skipped, +Inf on
				// empty), keeping the sharded and single-relation Counting
				// prunes identical.
				keep = func(e1 geom.Point) bool {
					if pr.countStrictlyCloser(e1, kJoin, kernel.MinDistSq(selXs, selYs, e1.X, e1.Y)) >= kJoin {
						ctr.AddOuterSkipped(1)
						return false
					}
					return true
				}
			}
			return func(u unit, dst []core.Pair) []core.Pair {
				if strat == StrategyBlockMarking && u.blk.isBlock() {
					if u.blk.Count() == 0 {
						return dst
					}
					// Theorem 1 with the exact global neighborhood of the
					// block center: the NC bound holds for the whole logical
					// relation, not just one shard.
					center := u.blk.Center()
					nbr := pr.neighborhood(center, kJoin)
					if nbr.Len() == kJoin && nbr.FarthestDist()+u.blk.Diagonal()+fFarthest < center.Dist(f) {
						ctr.AddBlocksPruned(1)
						return dst
					}
				}
				pr.eachNeighborhood(u, kJoin, keep, func(e1 geom.Point, nbr *locality.Neighborhood) {
					for _, e2 := range nbr.Points {
						if core.ContainsPoint(sorted, e2) {
							dst = append(dst, core.Pair{Left: e1, Right: e2})
						}
					}
				})
				return dst
			}
		})
	core.SortPairs(out)
	return out
}

// SelectOuterJoin evaluates (σ_{kSel,f}(outer)) ⋈kNN inner: the valid
// pushdown — the select gathers globally first, then the selected points'
// joins fan out in chunks. Results are the single-relation multiset in
// SortPairs order.
func SelectOuterJoin(ctx context.Context, outer, inner Group, f geom.Point, kSel, kJoin, workers int, c *stats.Counters) []core.Pair {
	if kSel <= 0 || kJoin <= 0 {
		return nil
	}
	sel := Select(ctx, outer, f, kSel, c)
	out := scatter(ctx, pointUnits(sel, workers), inner, workers, c,
		func(pr *probe, ctr *stats.Counters) emitFn[core.Pair] {
			return func(u unit, dst []core.Pair) []core.Pair {
				pr.eachNeighborhood(u, kJoin, nil, func(e1 geom.Point, nbr *locality.Neighborhood) {
					for _, e2 := range nbr.Points {
						dst = append(dst, core.Pair{Left: e1, Right: e2})
					}
				})
				return dst
			}
		})
	core.SortPairs(out)
	if out == nil {
		out = []core.Pair{}
	}
	return out
}

// RangeJoin evaluates (outer ⋈kNN inner) ∩ (outer × σ_rng(inner)) — the
// footnote-1 extension — with the chosen per-shard pruning strategy.
// Results are the single-relation multiset in SortPairs order.
func RangeJoin(ctx context.Context, outer, inner Group, rng geom.Rect, kJoin int, strat Strategy, workers int, c *stats.Counters) []core.Pair {
	if kJoin <= 0 {
		return nil
	}
	out := scatter(ctx, blockUnits(ctx, outer), inner, workers, c,
		func(pr *probe, ctr *stats.Counters) emitFn[core.Pair] {
			var keep func(e1 geom.Point) bool
			if strat == StrategyCounting {
				keep = func(e1 geom.Point) bool {
					if pr.countStrictlyCloser(e1, kJoin, rng.MinDistSq(e1)) >= kJoin {
						ctr.AddOuterSkipped(1)
						return false
					}
					return true
				}
			}
			return func(u unit, dst []core.Pair) []core.Pair {
				if strat == StrategyBlockMarking && u.blk.isBlock() {
					if u.blk.Count() == 0 {
						return dst
					}
					center := u.blk.Center()
					nbr := pr.neighborhood(center, kJoin)
					if nbr.Len() == kJoin && nbr.FarthestDist()+u.blk.Diagonal() < rng.MinDist(center) {
						ctr.AddBlocksPruned(1)
						return dst
					}
				}
				pr.eachNeighborhood(u, kJoin, keep, func(e1 geom.Point, nbr *locality.Neighborhood) {
					for _, e2 := range nbr.Points {
						if rng.Contains(e2) {
							dst = append(dst, core.Pair{Left: e1, Right: e2})
						}
					}
				})
				return dst
			}
		})
	core.SortPairs(out)
	return out
}

// Unchained evaluates (a ⋈kNN b) ∩_B (c ⋈kNN b): both joins scatter/gather
// independently (the conceptually correct plan — evaluating either "first"
// would be invalid) and intersect on the shared B component. Results are the
// single-relation multiset in SortTriples order.
func Unchained(ctx context.Context, a, b, cg Group, kAB, kCB, workers int, c *stats.Counters) []core.Triple {
	if kAB <= 0 || kCB <= 0 {
		return nil
	}
	abPairs := join(ctx, a, b, kAB, workers, c)
	cbPairs := join(ctx, cg, b, kCB, workers, c)
	out := core.IntersectOnB(abPairs, cbPairs)
	core.SortTriples(out)
	return out
}

// Chained evaluates (a ⋈kNN b) ∩_B (b ⋈kNN c) with the nested-join plan
// (QEP3 + cache, the paper's winner): the first join scatter/gathers, then
// its pairs fan out in chunks, each worker computing (or fetching from its
// private cache) the exact global C-neighborhood of each distinct b value.
// Results are the single-relation multiset in SortTriples order.
func Chained(ctx context.Context, a, b, cg Group, kAB, kBC, workers int, c *stats.Counters) []core.Triple {
	if kAB <= 0 || kBC <= 0 {
		return nil
	}
	abPairs := join(ctx, a, b, kAB, workers, c)
	out := scatter(ctx, pairUnits(abPairs, workers), cg, workers, c,
		func(pr *probe, ctr *stats.Counters) emitFn[core.Triple] {
			cache := make(map[geom.Point][]geom.Point)
			var misses []geom.Point
			return func(u unit, dst []core.Triple) []core.Triple {
				// Claim every b value the cache lacks (a repeat within the
				// unit is a hit, as in the per-pair loop), compute the
				// misses' neighborhoods together, then emit.
				misses = misses[:0]
				for _, p := range u.pairs {
					if _, ok := cache[p.Right]; ok {
						ctr.AddCacheHit()
						continue
					}
					ctr.AddCacheMiss()
					cache[p.Right] = nil
					misses = append(misses, p.Right)
				}
				pr.eachNeighborhood(unit{pts: misses}, kBC, nil, func(b geom.Point, nbr *locality.Neighborhood) {
					cache[b] = append([]geom.Point(nil), nbr.Points...)
				})
				for _, p := range u.pairs {
					for _, cp := range cache[p.Right] {
						dst = append(dst, core.Triple{A: p.Left, B: p.Right, C: cp})
					}
				}
				return dst
			}
		})
	core.SortTriples(out)
	return out
}

// sortedSet returns a canonically sorted copy of pts for
// core.ContainsPoint membership tests.
func sortedSet(pts []geom.Point) []geom.Point {
	out := append([]geom.Point(nil), pts...)
	core.SortPoints(out)
	return out
}

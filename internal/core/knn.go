package core

import (
	"repro/internal/geom"
	"repro/internal/locality"
	"repro/internal/stats"
)

// KNNSelect evaluates σ_{k,f}(E): the k points of rel closest to the focal
// point f. Fewer than k points are returned only when the relation holds
// fewer than k points.
func KNNSelect(rel *Relation, f geom.Point, k int, c *stats.Counters) []geom.Point {
	nbr := rel.S.Neighborhood(f, k, c)
	out := make([]geom.Point, len(nbr.Points))
	copy(out, nbr.Points)
	return out
}

// maxJoinPrealloc caps the up-front capacity reserved for a join's result
// slice. The exact result size of a kNN-join is outer.Len()·min(k, |inner|),
// but reserving it eagerly means one huge allocation for large outer
// relations before the first pair is produced; past the cap, append grows
// the slice geometrically as results actually materialize.
const maxJoinPrealloc = 1 << 16

// joinResultCap returns the initial capacity for a join result expected to
// hold `exact` pairs.
func joinResultCap(exact int) int {
	if exact > maxJoinPrealloc {
		return maxJoinPrealloc
	}
	return exact
}

// KNNJoin evaluates outer ⋈kNN inner: all pairs (e1, e2) with e1 from the
// outer relation and e2 among the k nearest neighbors of e1 in the inner
// relation. This is the paper's basic join building block; every point of
// the outer relation incurs one neighborhood computation. The outer blocks
// fan out across workers, each holding a pooled searcher handle on the
// inner relation; workers <= 1 evaluates sequentially on the caller's
// goroutine, and every worker count returns the same pairs in the same
// order.
func KNNJoin(outer, inner *Relation, k, workers int, c *stats.Counters) []Pair {
	if k <= 0 {
		return nil
	}
	out := parallelEmit(&pairArenas, tupleGroups{blocks: outer.Ix.Blocks()}, inner, workers,
		joinResultCap(outer.Len()*min(k, inner.Len())), c, nil, knnPairEmitter(k))
	if out == nil {
		out = []Pair{} // a valid k yields a non-nil slice
	}
	return out
}

// knnPairEmitter returns the plain kNN-join emitter: the neighborhood of
// each outer point, as (outer, neighbor) pairs.
func knnPairEmitter(k int) func(h *Relation, e1 geom.Point, dst []Pair, ctr *stats.Counters) []Pair {
	return func(h *Relation, e1 geom.Point, dst []Pair, ctr *stats.Counters) []Pair {
		nbr := h.S.Neighborhood(e1, k, ctr)
		for _, e2 := range nbr.Points {
			dst = append(dst, Pair{Left: e1, Right: e2})
		}
		return dst
	}
}

// sortedPointSet returns the points of nbr as a canonically sorted slice for
// binary-search membership tests. It replaces the per-query
// map[geom.Point]struct{} intersection sets: neighborhoods are small (kσ
// points), so a sorted slice probes faster than a hash map and the copy
// doubles as the retained snapshot of a reusable searcher result.
func sortedPointSet(nbr *locality.Neighborhood) []geom.Point {
	out := make([]geom.Point, len(nbr.Points))
	copy(out, nbr.Points)
	SortPoints(out)
	return out
}

// ContainsPoint reports whether p is in the canonically sorted (SortPoints
// order) set. It is the one membership test every intersection step — core
// and the sharded gather alike — goes through, so canonical-order changes
// cannot diverge between them.
func ContainsPoint(set []geom.Point, p geom.Point) bool {
	lo, hi := 0, len(set)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if set[mid].Less(p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(set) && set[lo] == p
}

// intersectPairs keeps the join pairs whose Right component belongs to sel
// (a canonically sorted point set).
func intersectPairs(pairs []Pair, sel []geom.Point) []Pair {
	out := pairs[:0:0] // fresh slice, same capacity hint not needed
	for _, pr := range pairs {
		if ContainsPoint(sel, pr.Right) {
			out = append(out, pr)
		}
	}
	return out
}

// emitIntersection appends a pair (e1, i) for every point i present in both
// the neighborhood and the sorted set, preserving nbrE1's order.
func emitIntersection(dst []Pair, e1 geom.Point, nbrE1 *locality.Neighborhood, sel []geom.Point) []Pair {
	for _, i := range nbrE1.Points {
		if ContainsPoint(sel, i) {
			dst = append(dst, Pair{Left: e1, Right: i})
		}
	}
	return dst
}

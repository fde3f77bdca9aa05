package core

import (
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/locality"
	"repro/internal/stats"
)

// This file implements the extension announced in footnote 1 of the paper's
// Section 3: the invalid-pushdown problem — and its Counting/Block-Marking
// remedies — applies equally when the selection on the inner relation of a
// kNN-join is a spatial *range* predicate instead of a kNN-select:
//
//	(E1 ⋈kNN E2) ∩ (E1 × σ_range(E2))
//
// — pairs (e1, e2) with e2 among the k⋈ nearest neighbors of e1 AND inside
// the query rectangle. Pushing the range filter below the inner relation
// shrinks every neighborhood and changes the answer, exactly as with a
// kNN-select. The pruning thresholds simplify: the "selected set" is the
// rectangle itself, so distances to it are MINDIST values and the
// f-neighborhood radius term disappears.

// RangeInnerJoinConceptual evaluates the full kNN-join, fanned out across
// workers, and filters pairs whose Right component lies in the rectangle.
// Correctness baseline.
func RangeInnerJoinConceptual(outer, inner *Relation, rng geom.Rect, kJoin, workers int, c *stats.Counters) []Pair {
	pairs := KNNJoin(outer, inner, kJoin, workers, c)
	out := pairs[:0:0]
	for _, pr := range pairs {
		if rng.Contains(pr.Right) {
			out = append(out, pr)
		}
	}
	return out
}

// InvalidRangeInnerPushdown pushes the range filter below the inner relation
// of the join — the WRONG plan, implemented for the semantics tests of the
// footnote-1 extension.
func InvalidRangeInnerPushdown(outer, inner *Relation, rng geom.Rect, kJoin int,
	build func(pts []geom.Point) (*Relation, error), c *stats.Counters) ([]Pair, error) {

	var selected []geom.Point
	inner.ForEachPoint(func(p geom.Point) {
		if rng.Contains(p) {
			selected = append(selected, p)
		}
	})
	reduced, err := build(selected)
	if err != nil {
		return nil, err
	}
	return KNNJoin(outer, reduced, kJoin, 1, c), nil
}

// RangeInnerJoinCounting is the Counting algorithm adapted to a range
// selection: the per-point search threshold is MINDIST(e1, rectangle). If
// k⋈ or more inner points lie strictly closer to e1 than the rectangle, the
// neighborhood of e1 cannot reach the rectangle and e1 is skipped. The
// outer blocks fan out across workers.
func RangeInnerJoinCounting(outer, inner *Relation, rng geom.Rect, kJoin, workers int, c *stats.Counters) []Pair {
	if kJoin <= 0 {
		return nil
	}
	return parallelEmit(&pairArenas, tupleGroups{blocks: outer.Ix.Blocks()}, inner, workers, 0, c, nil,
		func(h *Relation, e1 geom.Point, dst []Pair, ctr *stats.Counters) []Pair {
			if h.S.CountStrictlyCloser(e1, kJoin, rng.MinDistSq(e1), ctr) >= kJoin {
				ctr.AddOuterSkipped(1)
				return dst
			}
			return emitRangePairs(dst, e1, h.S.Neighborhood(e1, kJoin, ctr), rng)
		})
}

// RangeInnerJoinBlockMarking is the Block-Marking algorithm adapted to a
// range selection: a block of the outer relation is Non-Contributing when
//
//	r + diagonal < MINDIST(center, rectangle),
//
// where r is the distance from the block center to its k⋈-th neighbor in
// the inner relation. (The f-neighborhood radius term of the kNN-select
// variant becomes zero because the selected region is the rectangle itself.)
// The contour scan runs from the rectangle center, the range analogue of
// scanning from f; the join over Contributing blocks fans out across
// workers.
func RangeInnerJoinBlockMarking(outer, inner *Relation, rng geom.Rect, kJoin int,
	opt BlockMarkingOptions, workers int, c *stats.Counters) []Pair {

	if kJoin <= 0 {
		return nil
	}
	contributing := markContributingBlocks(outer, inner, rng.Center(), kJoin, opt, c,
		func(b *index.Block, center geom.Point, r float64) bool {
			return r+b.Diagonal() < rng.MinDist(center)
		})
	return parallelEmit(&pairArenas, tupleGroups{blocks: contributing}, inner, workers, 0, c, nil,
		func(h *Relation, e1 geom.Point, dst []Pair, ctr *stats.Counters) []Pair {
			return emitRangePairs(dst, e1, h.S.Neighborhood(e1, kJoin, ctr), rng)
		})
}

// emitRangePairs appends the pairs (e1, e2) for neighbors e2 inside the
// rectangle.
func emitRangePairs(dst []Pair, e1 geom.Point, nbr *locality.Neighborhood, rng geom.Rect) []Pair {
	for _, e2 := range nbr.Points {
		if rng.Contains(e2) {
			dst = append(dst, Pair{Left: e1, Right: e2})
		}
	}
	return dst
}

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

// RangeInnerJoinConceptual evaluates the full kNN-join and filters pairs
// whose Right component lies in the rectangle. Correctness baseline.
func RangeInnerJoinConceptual(outer, inner *Relation, rng geom.Rect, kJoin int, c *stats.Counters) []Pair {
	pairs := KNNJoin(outer, inner, kJoin, c)
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
	return KNNJoin(outer, reduced, kJoin, c), nil
}

// RangeInnerJoinCounting is the Counting algorithm adapted to a range
// selection: the per-point search threshold is MINDIST(e1, rectangle). If
// k⋈ or more inner points lie strictly closer to e1 than the rectangle, the
// neighborhood of e1 cannot reach the rectangle and e1 is skipped.
func RangeInnerJoinCounting(outer, inner *Relation, rng geom.Rect, kJoin int, c *stats.Counters) []Pair {
	if kJoin <= 0 {
		return nil
	}

	var out []Pair
	outer.ForEachPoint(func(e1 geom.Point) {
		count := inner.S.CountStrictlyCloser(e1, kJoin, rng.MinDistSq(e1), c)

		if count >= kJoin {
			c.AddOuterSkipped(1)
			return
		}
		nbrE1 := inner.S.Neighborhood(e1, kJoin, c)
		for _, e2 := range nbrE1.Points {
			if rng.Contains(e2) {
				out = append(out, Pair{Left: e1, Right: e2})
			}
		}
	})
	return out
}

// RangeInnerJoinBlockMarking is the Block-Marking algorithm adapted to a
// range selection: a block of the outer relation is Non-Contributing when
//
//	r + diagonal < MINDIST(center, rectangle),
//
// where r is the distance from the block center to its k⋈-th neighbor in
// the inner relation. (The f-neighborhood radius term of the kNN-select
// variant becomes zero because the selected region is the rectangle itself.)
func RangeInnerJoinBlockMarking(outer, inner *Relation, rng geom.Rect, kJoin int,
	opt BlockMarkingOptions, c *stats.Counters) []Pair {

	if kJoin <= 0 {
		return nil
	}
	var out []Pair
	for _, b := range markContributingBlocksRange(outer, inner, rng, kJoin, opt, c) {
		xs, ys := b.XYs()
		for i := range xs {
			e1 := geom.Point{X: xs[i], Y: ys[i]}
			out = emitRangePairs(out, e1, inner.S.Neighborhood(e1, kJoin, c), rng)
		}
	}
	return out
}

// RangeInnerJoinConceptualParallel is RangeInnerJoinConceptual with the
// full kNN-join fanned out across workers.
func RangeInnerJoinConceptualParallel(outer, inner *Relation, rng geom.Rect, kJoin, workers int, c *stats.Counters) []Pair {
	pairs := KNNJoinParallel(outer, inner, kJoin, workers, c)
	out := pairs[:0:0]
	for _, pr := range pairs {
		if rng.Contains(pr.Right) {
			out = append(out, pr)
		}
	}
	return out
}

// RangeInnerJoinCountingParallel is the range Counting algorithm with the
// per-tuple scans fanned out across workers over the outer relation's
// blocks; results are identical — including order — to the sequential form.
func RangeInnerJoinCountingParallel(outer, inner *Relation, rng geom.Rect, kJoin, workers int, c *stats.Counters) []Pair {
	if kJoin <= 0 {
		return nil
	}
	return parallelEmit(&pairArenas, blockGroups(outer), inner, workers, c, nil,
		func(h *Relation, e1 geom.Point, dst []Pair, ctr *stats.Counters) []Pair {
			if h.S.CountStrictlyCloser(e1, kJoin, rng.MinDistSq(e1), ctr) >= kJoin {
				ctr.AddOuterSkipped(1)
				return dst
			}
			return emitRangePairs(dst, e1, h.S.Neighborhood(e1, kJoin, ctr), rng)
		})
}

// RangeInnerJoinBlockMarkingParallel is the range Block-Marking algorithm
// with the join over Contributing blocks fanned out across workers; the
// contour-scan preprocessing stays sequential, as in the kNN-select case.
func RangeInnerJoinBlockMarkingParallel(outer, inner *Relation, rng geom.Rect, kJoin int,
	opt BlockMarkingOptions, workers int, c *stats.Counters) []Pair {

	if kJoin <= 0 {
		return nil
	}
	contributing := markContributingBlocksRange(outer, inner, rng, kJoin, opt, c)
	return parallelEmit(&pairArenas, pointGroups(contributing), inner, workers, c, nil,
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

// markContributingBlocksRange is the preprocessing phase of the range
// Block-Marking algorithm: a contour scan of the outer blocks in MINDIST
// order from the rectangle center (the range analogue of scanning from f),
// returning the Contributing blocks in scan order.
func markContributingBlocksRange(outer, inner *Relation, rng geom.Rect, kJoin int,
	opt BlockMarkingOptions, c *stats.Counters) []*index.Block {

	exhaustive := opt.Exhaustive || !index.TilesSpace(outer.Ix)
	blocks := outer.Ix.Blocks()
	total := len(blocks)
	focal := rng.Center()

	// Full tiling, empty cells included: see markContributingBlocks.
	var contributing []*index.Block
	scan := index.NewMinDistScan(blocks, focal)
	mSq := -1.0
	scanned := 0
	for {
		b, minSq, ok := scan.Next()
		if !ok {
			break
		}
		if !exhaustive && mSq >= 0 && minSq >= mSq {
			c.AddBlocksPruned(total - scanned)
			break
		}
		scanned++

		center := b.Center()
		nbr := inner.S.Neighborhood(center, kJoin, c)
		r := nbr.FarthestDist()
		nonContributing := nbr.Len() == kJoin && r+b.Diagonal() < rng.MinDist(center)

		if nonContributing {
			c.AddBlocksPruned(1)
			if mSq < 0 {
				mSq = b.Bounds.MaxDistSq(focal)
			}
			continue
		}
		mSq = -1
		if b.Count() > 0 {
			contributing = append(contributing, b)
		}
	}
	c.AddBlocksScanned(scanned)
	return contributing
}

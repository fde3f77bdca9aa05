package core

import (
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/kernel"
	"repro/internal/stats"
)

// flatPoints is a structure-of-arrays copy of a retained point set. The
// Counting algorithm derives a search threshold per outer tuple as the
// nearest distance from the tuple to f's neighborhood — a scan of kσ
// points per tuple — so the neighborhood is flattened once and the scan
// runs through the batched MinDistSq kernel (bit-identical to
// Neighborhood.NearestDistSqTo: same operations, NaN lanes skipped, and
// min is order-insensitive over non-negative squared distances).
type flatPoints struct{ xs, ys []float64 }

func flattenPoints(pts []geom.Point) flatPoints {
	xs, ys := geom.FlatXYs(pts)
	return flatPoints{xs: xs, ys: ys}
}

// minDistSqTo returns the minimum squared distance from p to the set, or
// +Inf for an empty set.
func (f flatPoints) minDistSqTo(p geom.Point) float64 {
	return kernel.MinDistSq(f.xs, f.ys, p.X, p.Y)
}

// This file implements Section 3 of the paper: queries that combine a
// kNN-join with a kNN-select,
//
//	(E1 ⋈kNN E2) ∩ (E1 × σ_{kσ,f}(E2))
//
// i.e. pairs (e1, e2) such that e2 is among the k⋈ nearest neighbors of e1
// AND among the kσ nearest neighbors of the focal point f. The select is on
// the *inner* relation, where pushing it below the join is invalid; the
// Counting and Block-Marking algorithms recover the pruning a pushdown would
// have provided without changing the answer.

// SelectInnerJoinConceptual is the conceptually correct QEP of Figure 1:
// evaluate the full kNN-join, evaluate the kNN-select independently, and
// intersect. It is the correctness baseline and the slow comparator of
// Figures 19–21.
func SelectInnerJoinConceptual(outer, inner *Relation, f geom.Point, kJoin, kSel int, c *stats.Counters) []Pair {
	nbrF := inner.S.Neighborhood(f, kSel, c)
	sel := sortedPointSet(nbrF) // copied out: nbrF is invalidated by the join's searches
	pairs := KNNJoin(outer, inner, kJoin, c)
	return intersectPairs(pairs, sel)
}

// InvalidInnerPushdown is the plan of Figure 2: the kNN-select is pushed
// below the inner relation of the kNN-join, so the join sees only the kσ
// selected points. The paper proves this plan WRONG — it is implemented
// solely so the semantics tests can reproduce Figures 1 vs 2. Building the
// reduced inner relation uses the supplied constructor so the caller
// controls the index kind.
func InvalidInnerPushdown(outer, inner *Relation, f geom.Point, kJoin, kSel int,
	build func(pts []geom.Point) (*Relation, error), c *stats.Counters) ([]Pair, error) {

	selected := KNNSelect(inner, f, kSel, c)
	reduced, err := build(selected)
	if err != nil {
		return nil, err
	}
	return KNNJoin(outer, reduced, kJoin, c), nil
}

// SelectOuterJoin evaluates a query with the kNN-select on the *outer*
// relation of the join: (σ_{kσ,f}(E1)) ⋈kNN E2. Pushing the selection below
// the outer relation is valid (Figure 3 of the paper), so this simply
// selects and then joins the selected points.
func SelectOuterJoin(outer, inner *Relation, f geom.Point, kSel, kJoin int, c *stats.Counters) []Pair {
	selected := KNNSelect(outer, f, kSel, c)
	if kJoin <= 0 {
		return nil
	}
	out := make([]Pair, 0, len(selected)*kJoin)
	for _, e1 := range selected {
		nbr := inner.S.Neighborhood(e1, kJoin, c)
		for _, e2 := range nbr.Points {
			out = append(out, Pair{Left: e1, Right: e2})
		}
	}
	return out
}

// SelectInnerJoinCounting is the Counting algorithm (Procedure 1). For each
// outer point e1 it derives a search threshold — the distance from e1 to the
// nearest point of f's neighborhood — and counts inner points in blocks that
// lie entirely (strictly) within that threshold. Once the count reaches k⋈,
// e1's neighborhood provably cannot reach f's neighborhood and e1 is skipped
// without a neighborhood computation.
//
// The implementation uses strict comparisons (count blocks with
// MAXDIST < threshold, skip at count ≥ k⋈), which is safe under exact
// distance ties; see DESIGN.md §3.2.
func SelectInnerJoinCounting(outer, inner *Relation, f geom.Point, kJoin, kSel int, c *stats.Counters) []Pair {
	if kJoin <= 0 || kSel <= 0 {
		return nil
	}
	nbrF := inner.S.Neighborhood(f, kSel, c)
	if nbrF.Len() == 0 {
		return nil
	}
	// The f-neighborhood is consulted per outer tuple while the same
	// searcher keeps running queries, so its points are copied out of the
	// reusable result: once as the sorted intersection set, once flattened
	// to X/Y columns for the batched per-tuple threshold scans.
	sel := sortedPointSet(nbrF)
	flat := flattenPoints(nbrF.Points)

	var out []Pair
	outer.ForEachPoint(func(e1 geom.Point) {
		// The threshold is compared squared against block MAXDIST² values;
		// deriving it squared (not sqrt-then-square) keeps exact ties exact.
		count := inner.S.CountStrictlyCloser(e1, kJoin, flat.minDistSqTo(e1), c)

		if count >= kJoin {
			// ≥ k⋈ inner points strictly closer to e1 than any point of
			// nbr(f): e1 cannot contribute.
			c.AddOuterSkipped(1)
			return
		}
		nbrE1 := inner.S.Neighborhood(e1, kJoin, c)
		out = emitIntersection(out, e1, nbrE1, sel)
	})
	return out
}

// SelectInnerJoinConceptualParallel is SelectInnerJoinConceptual with the
// full kNN-join fanned out across workers (the select and the intersection
// are negligible next to the join).
func SelectInnerJoinConceptualParallel(outer, inner *Relation, f geom.Point, kJoin, kSel, workers int, c *stats.Counters) []Pair {
	nbrF := inner.S.Neighborhood(f, kSel, c)
	sel := sortedPointSet(nbrF) // copied out: nbrF is invalidated by the join's searches
	pairs := KNNJoinParallel(outer, inner, kJoin, workers, c)
	return intersectPairs(pairs, sel)
}

// SelectOuterJoinParallel is SelectOuterJoin with the selected points'
// join fanned out across workers in contiguous chunks. Results are
// identical — including order — to the sequential evaluation.
func SelectOuterJoinParallel(outer, inner *Relation, f geom.Point, kSel, kJoin, workers int, c *stats.Counters) []Pair {
	selected := KNNSelect(outer, f, kSel, c)
	if kJoin <= 0 {
		return nil
	}
	out := parallelEmit(&pairArenas, pointChunks(selected, workers), inner, workers, c, nil,
		knnPairEmitter(kJoin))
	if out == nil {
		out = []Pair{} // SelectOuterJoin returns a non-nil slice for valid k
	}
	return out
}

// SelectInnerJoinCountingParallel is the Counting algorithm with the
// per-tuple scans fanned out across workers over the outer relation's
// blocks. The count-based skip decision is independent per tuple, so the
// result is identical — including order — to SelectInnerJoinCounting.
func SelectInnerJoinCountingParallel(outer, inner *Relation, f geom.Point, kJoin, kSel, workers int, c *stats.Counters) []Pair {
	if kJoin <= 0 || kSel <= 0 {
		return nil
	}
	nbrF := inner.S.Neighborhood(f, kSel, c)
	if nbrF.Len() == 0 {
		return nil
	}
	// The workers consult the f-neighborhood concurrently while their
	// handles keep running queries, so its points are copied out of the
	// reusable result (sorted set + flat columns, both read-only to the
	// workers).
	sel := sortedPointSet(nbrF)
	flat := flattenPoints(nbrF.Points)

	return parallelEmit(&pairArenas, blockGroups(outer), inner, workers, c, nil,
		func(h *Relation, e1 geom.Point, dst []Pair, ctr *stats.Counters) []Pair {
			if h.S.CountStrictlyCloser(e1, kJoin, flat.minDistSqTo(e1), ctr) >= kJoin {
				ctr.AddOuterSkipped(1)
				return dst
			}
			return emitIntersection(dst, e1, h.S.Neighborhood(e1, kJoin, ctr), sel)
		})
}

// SelectInnerJoinBlockMarkingParallel is the Block-Marking algorithm with
// the join over Contributing blocks fanned out across workers. The marking
// preprocessing itself stays sequential: the contour early-stop is a
// data-dependent scan in MINDIST order that cannot be split without giving
// up its early termination.
func SelectInnerJoinBlockMarkingParallel(outer, inner *Relation, f geom.Point, kJoin, kSel int,
	opt BlockMarkingOptions, workers int, c *stats.Counters) []Pair {

	if kJoin <= 0 || kSel <= 0 {
		return nil
	}
	nbrF := inner.S.Neighborhood(f, kSel, c)
	if nbrF.Len() == 0 {
		return nil
	}
	sel := sortedPointSet(nbrF)
	fFarthest := nbrF.FarthestDist()

	contributing := markContributingBlocks(outer, inner, f, fFarthest, kJoin, opt, c)
	return parallelEmit(&pairArenas, pointGroups(contributing), inner, workers, c, nil,
		func(h *Relation, e1 geom.Point, dst []Pair, ctr *stats.Counters) []Pair {
			return emitIntersection(dst, e1, h.S.Neighborhood(e1, kJoin, ctr), sel)
		})
}

// BlockMarkingOptions tune the Block-Marking algorithm.
type BlockMarkingOptions struct {
	// Exhaustive disables the contour early-stop of the preprocessing phase
	// (Procedure 3): every outer block is checked individually. Exhaustive
	// preprocessing is automatically used when the outer index does not
	// tile space (R-trees), where the contour argument does not hold.
	Exhaustive bool
}

// SelectInnerJoinBlockMarking is the Block-Marking algorithm (Procedures 2
// and 3). A preprocessing pass over the blocks of the *outer* relation marks
// each block Contributing or Non-Contributing using the neighborhood of the
// block center (Theorem 1: the center minimizes the search threshold); the
// join then runs only over points in Contributing blocks.
func SelectInnerJoinBlockMarking(outer, inner *Relation, f geom.Point, kJoin, kSel int,
	opt BlockMarkingOptions, c *stats.Counters) []Pair {

	if kJoin <= 0 || kSel <= 0 {
		return nil
	}
	nbrF := inner.S.Neighborhood(f, kSel, c)
	if nbrF.Len() == 0 {
		return nil
	}
	// The marking pass reuses the same searcher, so everything needed from
	// nbrF (the sorted set and the threshold radius) is copied out first.
	sel := sortedPointSet(nbrF)
	fFarthest := nbrF.FarthestDist()

	contributing := markContributingBlocks(outer, inner, f, fFarthest, kJoin, opt, c)

	var out []Pair
	for _, b := range contributing {
		xs, ys := b.XYs()
		for i := range xs {
			e1 := geom.Point{X: xs[i], Y: ys[i]}
			nbrE1 := inner.S.Neighborhood(e1, kJoin, c)
			out = emitIntersection(out, e1, nbrE1, sel)
		}
	}
	return out
}

// markContributingBlocks is the preprocessing phase (Procedure 3). It scans
// the outer blocks in MINDIST order from f. A block is Non-Contributing when
//
//	r + diagonal + fFarthest < fCenter,
//
// where r is the distance from the block center to the k⋈-th neighbor of the
// center in the inner relation, fFarthest the radius of f's neighborhood and
// fCenter the distance from f to the block center. With the contour
// optimization enabled, scanning stops once a complete cycle of
// Non-Contributing blocks has been closed: when the scan reaches a block
// whose MINDIST from f is at least the MAXDIST (M) of the first
// Non-Contributing block of the current cycle, all remaining blocks are
// pruned without inspection.
func markContributingBlocks(outer, inner *Relation, f geom.Point, fFarthest float64,
	kJoin int, opt BlockMarkingOptions, c *stats.Counters) []*index.Block {

	exhaustive := opt.Exhaustive || !index.TilesSpace(outer.Ix)
	blocks := outer.Ix.Blocks()
	total := len(blocks)

	// The contour argument (Theorem 1) needs every cell of a closed cycle,
	// empty ones included, to be checked as a region, so the scan walks the
	// full tiling rather than the index's occupied-blocks iterator.
	var contributing []*index.Block
	scan := index.NewMinDistScan(blocks, f)
	mSq := -1.0 // squared MAXDIST of the first NC block of the open cycle; <0: no open cycle
	scanned := 0
	for {
		b, minSq, ok := scan.Next()
		if !ok {
			break
		}
		if !exhaustive && mSq >= 0 && minSq >= mSq {
			// Contour closed: every block with MINDIST < M was scanned and
			// found Non-Contributing; the rest cannot contribute.
			c.AddBlocksPruned(total - scanned)
			break
		}
		scanned++

		center := b.Center()
		nbr := inner.S.Neighborhood(center, kJoin, c)
		r := nbr.FarthestDist()
		fCenter := center.Dist(f)

		// The NC guarantee needs a full-size neighborhood: with fewer than
		// k⋈ inner points inside radius r, the bound on a block point's
		// k⋈-th-NN distance does not hold.
		nonContributing := nbr.Len() == kJoin && r+b.Diagonal()+fFarthest < fCenter

		if nonContributing {
			c.AddBlocksPruned(1)
			if mSq < 0 {
				mSq = b.Bounds.MaxDistSq(f) // first NC block of a new cycle
			}
		} else {
			if b.Count() > 0 {
				contributing = append(contributing, b)
			}
			mSq = -1 // cycle broken; start over
		}
	}
	c.AddBlocksScanned(scanned)
	return contributing
}

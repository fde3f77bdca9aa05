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
// Figures 19–21. The join fans out across workers (the select and the
// intersection are negligible next to it).
func SelectInnerJoinConceptual(outer, inner *Relation, f geom.Point, kJoin, kSel, workers int, c *stats.Counters) []Pair {
	nbrF := inner.S.Neighborhood(f, kSel, c)
	sel := sortedPointSet(nbrF) // copied out: nbrF is invalidated by the join's searches
	pairs := KNNJoin(outer, inner, kJoin, workers, c)
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
	return KNNJoin(outer, reduced, kJoin, 1, c), nil
}

// SelectOuterJoin evaluates a query with the kNN-select on the *outer*
// relation of the join: (σ_{kσ,f}(E1)) ⋈kNN E2. Pushing the selection below
// the outer relation is valid (Figure 3 of the paper), so this simply
// selects and then joins the selected points, in contiguous chunks across
// workers.
func SelectOuterJoin(outer, inner *Relation, f geom.Point, kSel, kJoin, workers int, c *stats.Counters) []Pair {
	selected := KNNSelect(outer, f, kSel, c)
	if kJoin <= 0 {
		return nil
	}
	out := parallelEmit(&pairArenas, pointChunks(selected, workers), inner, workers,
		joinResultCap(len(selected)*min(kJoin, inner.Len())), c, nil, knnPairEmitter(kJoin))
	if out == nil {
		out = []Pair{} // a valid k yields a non-nil slice
	}
	return out
}

// SelectInnerJoinCounting is the Counting algorithm (Procedure 1). For each
// outer point e1 it derives a search threshold — the distance from e1 to the
// nearest point of f's neighborhood — and counts inner points in blocks that
// lie entirely (strictly) within that threshold. Once the count reaches k⋈,
// e1's neighborhood provably cannot reach f's neighborhood and e1 is skipped
// without a neighborhood computation. The skip decision is independent per
// tuple, so the outer blocks fan out across workers.
//
// The implementation uses strict comparisons (count blocks with
// MAXDIST < threshold, skip at count ≥ k⋈), which is safe under exact
// distance ties; see DESIGN.md §3.2.
func SelectInnerJoinCounting(outer, inner *Relation, f geom.Point, kJoin, kSel, workers int, c *stats.Counters) []Pair {
	if kJoin <= 0 || kSel <= 0 {
		return nil
	}
	nbrF := inner.S.Neighborhood(f, kSel, c)
	if nbrF.Len() == 0 {
		return nil
	}
	// The f-neighborhood is consulted per outer tuple while the searchers
	// keep running queries, so its points are copied out of the reusable
	// result: once as the sorted intersection set, once flattened to X/Y
	// columns for the batched per-tuple threshold scans. Both are read-only
	// to the workers.
	sel := sortedPointSet(nbrF)
	flat := flattenPoints(nbrF.Points)

	return parallelEmit(&pairArenas, tupleGroups{blocks: outer.Ix.Blocks()}, inner, workers, 0, c, nil,
		func(h *Relation, e1 geom.Point, dst []Pair, ctr *stats.Counters) []Pair {
			// The threshold is compared squared against block MAXDIST²
			// values; deriving it squared (not sqrt-then-square) keeps exact
			// ties exact. ≥ k⋈ inner points strictly closer to e1 than any
			// point of nbr(f): e1 cannot contribute.
			if h.S.CountStrictlyCloser(e1, kJoin, flat.minDistSqTo(e1), ctr) >= kJoin {
				ctr.AddOuterSkipped(1)
				return dst
			}
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
// join then runs only over points in Contributing blocks, fanned out across
// workers. The marking itself stays sequential: the contour early-stop is a
// data-dependent scan in MINDIST order that cannot be split without giving
// up its early termination.
func SelectInnerJoinBlockMarking(outer, inner *Relation, f geom.Point, kJoin, kSel int,
	opt BlockMarkingOptions, workers int, c *stats.Counters) []Pair {

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

	contributing := markContributingBlocks(outer, inner, f, kJoin, opt, c, selectNonContributing(f, fFarthest))
	return parallelEmit(&pairArenas, tupleGroups{blocks: contributing}, inner, workers, 0, c, nil,
		func(h *Relation, e1 geom.Point, dst []Pair, ctr *stats.Counters) []Pair {
			return emitIntersection(dst, e1, h.S.Neighborhood(e1, kJoin, ctr), sel)
		})
}

// selectNonContributing is the Block-Marking test of the kNN-select form: a
// block is Non-Contributing when
//
//	r + diagonal + fFarthest < fCenter,
//
// where fFarthest is the radius of f's neighborhood and fCenter the
// distance from f to the block center.
func selectNonContributing(f geom.Point, fFarthest float64) func(b *index.Block, center geom.Point, r float64) bool {
	return func(b *index.Block, center geom.Point, r float64) bool {
		return r+b.Diagonal()+fFarthest < center.Dist(f)
	}
}

// markContributingBlocks is the preprocessing phase (Procedure 3), shared by
// the kNN-select and range forms of Block-Marking. It scans the outer
// blocks in MINDIST order from focal. For each block it computes r, the
// distance from the block center to the center's k⋈-th neighbor in the
// inner relation, and asks nonContributing whether the block provably
// cannot contribute. With the contour optimization enabled, scanning stops
// once a complete cycle of Non-Contributing blocks has been closed: when
// the scan reaches a block whose MINDIST from focal is at least the MAXDIST
// (M) of the first Non-Contributing block of the current cycle, all
// remaining blocks are pruned without inspection. The Contributing
// non-empty blocks are returned in scan order.
func markContributingBlocks(outer, inner *Relation, focal geom.Point, kJoin int,
	opt BlockMarkingOptions, c *stats.Counters,
	nonContributing func(b *index.Block, center geom.Point, r float64) bool) []*index.Block {

	exhaustive := opt.Exhaustive || !index.TilesSpace(outer.Ix)
	blocks := outer.Ix.Blocks()
	total := len(blocks)

	// The contour argument (Theorem 1) needs every cell of a closed cycle,
	// empty ones included, to be checked as a region, so the scan walks the
	// full tiling rather than the index's occupied-blocks iterator.
	var contributing []*index.Block
	scan := index.NewMinDistScan(blocks, focal)
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
		// The NC guarantee needs a full-size neighborhood: with fewer than
		// k⋈ inner points inside radius r, the bound on a block point's
		// k⋈-th-NN distance does not hold.
		if nbr.Len() == kJoin && nonContributing(b, center, nbr.FarthestDist()) {
			c.AddBlocksPruned(1)
			if mSq < 0 {
				mSq = b.Bounds.MaxDistSq(focal) // first NC block of a new cycle
			}
			continue
		}
		if b.Count() > 0 {
			contributing = append(contributing, b)
		}
		mSq = -1 // cycle broken; start over
	}
	c.AddBlocksScanned(scanned)
	return contributing
}

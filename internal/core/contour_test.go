package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/index/grid"
	"repro/internal/testutil"
)

// TestBlockMarkingContourCountsEmptyCells guards the soundness of
// Block-Marking's contour early stop (Procedure 3) on a clustered outer grid
// whose cells are mostly empty. Theorem 1's closed contour must consist of
// cells that are Non-Contributing as regions, empty cells included. Here the
// only non-empty outer block near f is Non-Contributing, and every cell
// between it and a far, contributing outer point is empty. Those empty
// cells are Contributing as regions, so they must break the contour cycle;
// a scan over only the occupied cells closes the contour early and loses
// the far point's pairs. Contour, exhaustive and conceptual evaluation must
// agree for the kNN-select and the range variants.
func TestBlockMarkingContourCountsEmptyCells(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1000, 1000)
	f := geom.Point{X: 100, Y: 500}
	// The outer grid has 50×50 cells: a Non-Contributing stack of points in
	// cell [100,150)×[300,350), and one contributing point far to the right.
	nc := geom.Point{X: 120, Y: 320}
	outerPts := append(copies(nc, 20), geom.Point{X: 600, Y: 500})
	ix, err := grid.New(outerPts, grid.Options{Bounds: bounds, Cols: 20, Rows: 20})
	if err != nil {
		t.Fatal(err)
	}
	outer := core.NewRelation(ix)
	// Inner: exactly kSel copies of f, so the far point's nearest neighbors
	// all fall in nbr(f), and a dense stack on the Non-Contributing cell.
	const kJoin, kSel = 3, 10
	inner := testutil.BuildRelation(t, testutil.Grid, append(copies(f, kSel), copies(nc, 30)...))

	want := sortedPairs(core.SelectInnerJoinConceptual(outer, inner, f, kJoin, kSel, nil))
	if len(want) == 0 {
		t.Fatal("fixture lost its far contributing point")
	}
	for _, exhaustive := range []bool{false, true} {
		got := sortedPairs(core.SelectInnerJoinBlockMarking(outer, inner, f, kJoin, kSel,
			core.BlockMarkingOptions{Exhaustive: exhaustive}, nil))
		if !pairsEqual(got, want) {
			t.Fatalf("exhaustive=%v: Block-Marking %v, conceptual %v", exhaustive, got, want)
		}
	}
	rect := geom.NewRect(90, 490, 110, 510)
	want = sortedPairs(core.RangeInnerJoinConceptual(outer, inner, rect, kJoin, nil))
	if len(want) == 0 {
		t.Fatal("range fixture lost its far contributing point")
	}
	for _, exhaustive := range []bool{false, true} {
		got := sortedPairs(core.RangeInnerJoinBlockMarking(outer, inner, rect, kJoin,
			core.BlockMarkingOptions{Exhaustive: exhaustive}, nil))
		if !pairsEqual(got, want) {
			t.Fatalf("exhaustive=%v: range Block-Marking %v, conceptual %v", exhaustive, got, want)
		}
	}
}

func copies(p geom.Point, n int) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = p
	}
	return out
}

package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/testutil"
)

var tsBounds = geom.NewRect(0, 0, 1000, 1000)

// TestTwoSelectsEquivalence checks Section 5: the 2-kNN-select algorithm
// returns exactly the conceptual plan's intersection, for k1 < k2, k1 > k2
// (the swap path) and k1 = k2, on every index kind and layout.
func TestTwoSelectsEquivalence(t *testing.T) {
	layouts := map[string][]geom.Point{
		"uniform":   testutil.UniformPoints(800, tsBounds, 1101),
		"clustered": testutil.ClusteredPoints(800, 6, 25, tsBounds, 1102),
		"tiny":      testutil.UniformPoints(15, tsBounds, 1103),
	}
	rng := rand.New(rand.NewSource(1104))
	for name, pts := range layouts {
		for _, kind := range testutil.AllIndexKinds {
			rel := testutil.BuildRelation(t, kind, pts)
			for _, ks := range []struct{ k1, k2 int }{
				{10, 10}, {10, 100}, {100, 10}, {1, 500}, {5, 5}, {3, len(pts) + 10},
			} {
				for trial := 0; trial < 4; trial++ {
					f1 := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
					f2 := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}

					want := core.TwoSelectsConceptual(rel, f1, ks.k1, f2, ks.k2, nil)
					core.SortPoints(want)
					got := core.TwoSelects(rel, f1, ks.k1, f2, ks.k2, nil)
					core.SortPoints(got)
					if !pointsEqual(got, want) {
						t.Fatalf("%s/%s k1=%d k2=%d f1=%v f2=%v: 2-kNN-select differs (%d vs %d points)",
							name, kind, ks.k1, ks.k2, f1, f2, len(got), len(want))
					}
					p5 := core.TwoSelectsProcedure5(rel, f1, ks.k1, f2, ks.k2, nil)
					core.SortPoints(p5)
					if !pointsEqual(p5, want) {
						t.Fatalf("%s/%s k1=%d k2=%d f1=%v f2=%v: Procedure-5 variant differs (%d vs %d points)",
							name, kind, ks.k1, ks.k2, f1, f2, len(p5), len(want))
					}
				}
			}
		}
	}
}

// TestTwoSelectsNearbyFocals exercises the interesting regime of Figure 26:
// focal points close together, so the answer is usually non-empty.
func TestTwoSelectsNearbyFocals(t *testing.T) {
	pts := testutil.UniformPoints(1000, tsBounds, 1111)
	rel := testutil.BuildRelation(t, testutil.Grid, pts)
	f1 := geom.Point{X: 500, Y: 500}
	f2 := geom.Point{X: 520, Y: 480}

	sawNonEmpty := false
	for _, k2 := range []int{10, 20, 40, 80, 160, 320, 640} {
		want := core.TwoSelectsConceptual(rel, f1, 10, f2, k2, nil)
		core.SortPoints(want)
		got := core.TwoSelects(rel, f1, 10, f2, k2, nil)
		core.SortPoints(got)
		if !pointsEqual(got, want) {
			t.Fatalf("k2=%d: mismatch (%d vs %d points)", k2, len(got), len(want))
		}
		if len(got) > 0 {
			sawNonEmpty = true
		}
		if len(got) > 10 {
			t.Fatalf("k2=%d: answer larger than min(k1,k2)=10: %d", k2, len(got))
		}
	}
	if !sawNonEmpty {
		t.Fatalf("every sweep step returned empty; layout is miscalibrated")
	}
}

// TestTwoSelectsClipping checks the mechanism, not just the answer: with a
// large k2 the clipped plan must scan fewer blocks than the conceptual plan.
func TestTwoSelectsClipping(t *testing.T) {
	pts := testutil.UniformPoints(4000, tsBounds, 1121)
	rel := testutil.BuildRelation(t, testutil.Grid, pts)
	f1 := geom.Point{X: 500, Y: 500}
	f2 := geom.Point{X: 510, Y: 510}
	k1, k2 := 5, 2000

	var conc, eff stats.Counters
	core.TwoSelectsConceptual(rel, f1, k1, f2, k2, &conc)
	core.TwoSelects(rel, f1, k1, f2, k2, &eff)

	if eff.PointsCompared >= conc.PointsCompared {
		t.Errorf("2-kNN-select compared %d points, conceptual %d; clipping had no effect",
			eff.PointsCompared, conc.PointsCompared)
	}
}

func TestTwoSelectsDegenerate(t *testing.T) {
	rel := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(30, tsBounds, 1131))
	f1 := geom.Point{X: 1, Y: 1}
	f2 := geom.Point{X: 999, Y: 999}

	if got := core.TwoSelects(rel, f1, 0, f2, 10, nil); len(got) != 0 {
		t.Errorf("k1=0 must give empty result, got %d", len(got))
	}
	if got := core.TwoSelects(rel, f1, 10, f2, -1, nil); len(got) != 0 {
		t.Errorf("negative k2 must give empty result, got %d", len(got))
	}

	// Identical focal points: the answer is exactly the smaller select.
	got := core.TwoSelects(rel, f1, 7, f1, 20, nil)
	core.SortPoints(got)
	want := core.KNNSelect(rel, f1, 7, nil)
	core.SortPoints(want)
	if !pointsEqual(got, want) {
		t.Errorf("same focal point: got %d points, want the k=7 select (%d points)", len(got), len(want))
	}
}

// TestKNNSelectBasics pins down the single-predicate building block.
func TestKNNSelectBasics(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 0}, {X: 10, Y: 0}}
	rel := testutil.BuildRelation(t, testutil.Grid, pts)
	got := core.KNNSelect(rel, geom.Point{X: 0, Y: 0}, 3, nil)
	want := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}
	if !pointsEqual(got, want) {
		t.Fatalf("KNNSelect = %v, want %v", got, want)
	}
}

// TestKNNJoinBasics pins down the join building block on a crafted layout.
func TestKNNJoinBasics(t *testing.T) {
	outerPts := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}
	innerPts := []geom.Point{{X: 1, Y: 0}, {X: 2, Y: 0}, {X: 99, Y: 0}, {X: 98, Y: 0}}
	outer := testutil.BuildRelation(t, testutil.Grid, outerPts)
	inner := testutil.BuildRelation(t, testutil.Grid, innerPts)

	got := core.KNNJoin(outer, inner, 2, 1, nil)
	core.SortPairs(got)
	want := []core.Pair{
		{Left: geom.Point{X: 0, Y: 0}, Right: geom.Point{X: 1, Y: 0}},
		{Left: geom.Point{X: 0, Y: 0}, Right: geom.Point{X: 2, Y: 0}},
		{Left: geom.Point{X: 100, Y: 0}, Right: geom.Point{X: 98, Y: 0}},
		{Left: geom.Point{X: 100, Y: 0}, Right: geom.Point{X: 99, Y: 0}},
	}
	core.SortPairs(want)
	if !pairsEqual(got, want) {
		t.Fatalf("KNNJoin = %v, want %v", got, want)
	}

	if got := core.KNNJoin(outer, inner, 0, 1, nil); len(got) != 0 {
		t.Errorf("k=0 join must be empty")
	}
}

package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/testutil"
)

var chBounds = geom.NewRect(0, 0, 1000, 1000)

// TestChainedQEPsEquivalent checks the Figure 13 equivalence: the right-deep
// plan, the join-intersection plan, and the nested-join plan (with and
// without cache) all produce the same triples.
func TestChainedQEPsEquivalent(t *testing.T) {
	layouts := map[string]struct{ a, b, c []geom.Point }{
		"uniform": {
			a: testutil.UniformPoints(100, chBounds, 1001),
			b: testutil.UniformPoints(200, chBounds, 1002),
			c: testutil.UniformPoints(150, chBounds, 1003),
		},
		"b-clustered": {
			a: testutil.UniformPoints(100, chBounds, 1004),
			b: testutil.ClusteredPoints(200, 5, 20, chBounds, 1005),
			c: testutil.UniformPoints(150, chBounds, 1006),
		},
	}
	qeps := []core.ChainedQEP{
		core.ChainedRightDeep,
		core.ChainedJoinIntersection,
		core.ChainedNestedJoin,
		core.ChainedNestedJoinCached,
		core.ChainedAuto,
	}
	for name, layout := range layouts {
		for _, kind := range testutil.AllIndexKinds {
			a := testutil.BuildRelation(t, kind, layout.a)
			b := testutil.BuildRelation(t, kind, layout.b)
			c := testutil.BuildRelation(t, kind, layout.c)
			for _, ks := range []struct{ kAB, kBC int }{{1, 1}, {2, 2}, {3, 5}} {
				var want []core.Triple
				for i, qep := range qeps {
					got := core.ChainedJoins(a, b, c, ks.kAB, ks.kBC, qep, 1, nil)
					core.SortTriples(got)
					if i == 0 {
						want = got
						continue
					}
					if !triplesEqual(got, want) {
						t.Fatalf("%s/%s kAB=%d kBC=%d: %v differs from %v (%d vs %d triples)",
							name, kind, ks.kAB, ks.kBC, qep, qeps[0], len(got), len(want))
					}
				}
			}
		}
	}
}

// TestChainedAgainstFirstPrinciples validates the chained semantics from
// scratch: (a, b, c) qualifies iff b ∈ kNN_B(a) and c ∈ kNN_C(b).
func TestChainedAgainstFirstPrinciples(t *testing.T) {
	aPts := testutil.UniformPoints(40, chBounds, 1011)
	bPts := testutil.UniformPoints(60, chBounds, 1012)
	cPts := testutil.UniformPoints(50, chBounds, 1013)
	a := testutil.BuildRelation(t, testutil.Grid, aPts)
	b := testutil.BuildRelation(t, testutil.Grid, bPts)
	c := testutil.BuildRelation(t, testutil.Grid, cPts)
	kAB, kBC := 3, 4

	got := core.ChainedJoins(a, b, c, kAB, kBC, core.ChainedAuto, 1, nil)
	core.SortTriples(got)

	var want []core.Triple
	for _, ap := range aPts {
		for _, bp := range bruteKNN(bPts, ap, kAB) {
			for _, cp := range bruteKNN(cPts, bp, kBC) {
				want = append(want, core.Triple{A: ap, B: bp, C: cp})
			}
		}
	}
	core.SortTriples(want)

	if !triplesEqual(got, want) {
		t.Fatalf("chained result disagrees with first principles: %d vs %d triples", len(got), len(want))
	}
}

// TestChainedCacheCounters checks that the cache actually absorbs repeated
// b-neighborhood computations: with kAB > 1 over clustered data, some b is
// selected by several a's, so hits must be non-zero, and misses must equal
// the number of distinct b values joined.
func TestChainedCacheCounters(t *testing.T) {
	a := testutil.BuildRelation(t, testutil.Grid, testutil.ClusteredPoints(150, 3, 10, chBounds, 1021))
	b := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(100, chBounds, 1022))
	c := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(100, chBounds, 1023))

	var ctr stats.Counters
	got := core.ChainedJoins(a, b, c, 3, 2, core.ChainedNestedJoinCached, 1, &ctr)

	if ctr.CacheHits == 0 {
		t.Errorf("expected cache hits on clustered outer data; counters: %v", &ctr)
	}
	distinctB := make(map[geom.Point]struct{})
	for _, tr := range got {
		distinctB[tr.B] = struct{}{}
	}
	if ctr.CacheMisses != int64(len(distinctB)) {
		t.Errorf("cache misses = %d, want one per distinct joined b = %d", ctr.CacheMisses, len(distinctB))
	}

	// Uncached nested join must recompute: neighborhoods strictly exceed
	// the cached run's.
	var unctr stats.Counters
	core.ChainedJoins(a, b, c, 3, 2, core.ChainedNestedJoin, 1, &unctr)
	if unctr.Neighborhoods <= ctr.Neighborhoods {
		t.Errorf("uncached neighborhoods (%d) should exceed cached (%d)", unctr.Neighborhoods, ctr.Neighborhoods)
	}
}

// TestChainedNestedSkipsUnselectedB checks QEP3's core advantage: b values
// outside every a-neighborhood never incur a C-neighborhood computation.
func TestChainedNestedSkipsUnselectedB(t *testing.T) {
	// a's and half of b's in one corner; the other half of b's far away,
	// never selected.
	aPts := testutil.ClusteredPoints(50, 1, 5, geom.NewRect(0, 0, 50, 50), 1031)
	bNear := testutil.ClusteredPoints(50, 1, 5, geom.NewRect(0, 0, 50, 50), 1032)
	bFar := testutil.ClusteredPoints(50, 1, 5, geom.NewRect(900, 900, 950, 950), 1033)
	bPts := append(append([]geom.Point{}, bNear...), bFar...)
	cPts := testutil.UniformPoints(100, chBounds, 1034)

	a := testutil.BuildRelation(t, testutil.Grid, aPts)
	b := testutil.BuildRelation(t, testutil.Grid, bPts)
	c := testutil.BuildRelation(t, testutil.Grid, cPts)

	var nested, rightDeep stats.Counters
	core.ChainedJoins(a, b, c, 2, 2, core.ChainedNestedJoinCached, 1, &nested)
	core.ChainedJoins(a, b, c, 2, 2, core.ChainedRightDeep, 1, &rightDeep)

	// The right-deep plan materializes a C-neighborhood for every b (100);
	// the nested plan touches only selected b's (≤ 50).
	if nested.Neighborhoods >= rightDeep.Neighborhoods {
		t.Errorf("nested plan computed %d neighborhoods, right-deep %d; nested must be fewer",
			nested.Neighborhoods, rightDeep.Neighborhoods)
	}
}

func TestChainedDegenerate(t *testing.T) {
	a := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(10, chBounds, 1041))
	b := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(10, chBounds, 1042))
	c := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(10, chBounds, 1043))

	for _, qep := range []core.ChainedQEP{core.ChainedRightDeep, core.ChainedJoinIntersection, core.ChainedNestedJoinCached} {
		if got := core.ChainedJoins(a, b, c, 0, 3, qep, 1, nil); len(got) != 0 {
			t.Errorf("%v: kAB=0 must give empty result", qep)
		}
		if got := core.ChainedJoins(a, b, c, 3, 0, qep, 1, nil); len(got) != 0 {
			t.Errorf("%v: kBC=0 must give empty result", qep)
		}
	}

	// Oversized k: full cross product through both joins.
	got := core.ChainedJoins(a, b, c, 100, 100, core.ChainedAuto, 1, nil)
	if len(got) != 10*10*10 {
		t.Errorf("oversized k: got %d triples, want 1000", len(got))
	}
}

func TestChainedRandomSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1051))
	for trial := 0; trial < 5; trial++ {
		a := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(20+rng.Intn(60), chBounds, rng.Int63()))
		b := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(30+rng.Intn(80), chBounds, rng.Int63()))
		c := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(20+rng.Intn(60), chBounds, rng.Int63()))
		kAB, kBC := 1+rng.Intn(4), 1+rng.Intn(4)

		want := core.ChainedJoins(a, b, c, kAB, kBC, core.ChainedRightDeep, 1, nil)
		core.SortTriples(want)
		got := core.ChainedJoins(a, b, c, kAB, kBC, core.ChainedNestedJoinCached, 1, nil)
		core.SortTriples(got)
		if !triplesEqual(got, want) {
			t.Fatalf("trial %d: nested-cached differs from right-deep (%d vs %d)", trial, len(got), len(want))
		}
	}
}

func TestQEPStringers(t *testing.T) {
	for _, q := range []core.ChainedQEP{core.ChainedAuto, core.ChainedRightDeep,
		core.ChainedJoinIntersection, core.ChainedNestedJoin, core.ChainedNestedJoinCached} {
		if q.String() == "" {
			t.Errorf("ChainedQEP %d has empty String()", q)
		}
	}
	for _, o := range []core.JoinOrder{core.OrderAuto, core.OrderABFirst, core.OrderCBFirst} {
		if o.String() == "" {
			t.Errorf("JoinOrder %d has empty String()", o)
		}
	}
}

// TestChainedQEPsAgreeWithDuplicates pins the bag-semantics consistency of
// the chained QEPs when B holds duplicate coordinates (as snapshots of
// dwelling vehicles do): every plan must produce the same triple multiset.
// Regression test for the join-intersection plan accumulating one
// neighborhood list per duplicate instance instead of per distinct value.
func TestChainedQEPsAgreeWithDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(1061))
	dup := func(n int) []geom.Point {
		base := testutil.UniformPoints(n/2, chBounds, rng.Int63())
		out := append([]geom.Point{}, base...)
		for _, p := range base {
			out = append(out, p) // exact duplicate of every point
		}
		return out
	}
	a := testutil.BuildRelation(t, testutil.Grid, dup(60))
	b := testutil.BuildRelation(t, testutil.Grid, dup(80))
	c := testutil.BuildRelation(t, testutil.Grid, dup(70))

	want := core.ChainedJoins(a, b, c, 3, 3, core.ChainedRightDeep, 1, nil)
	core.SortTriples(want)
	for _, qep := range []core.ChainedQEP{core.ChainedJoinIntersection, core.ChainedNestedJoin, core.ChainedNestedJoinCached} {
		got := core.ChainedJoins(a, b, c, 3, 3, qep, 1, nil)
		core.SortTriples(got)
		if !triplesEqual(got, want) {
			t.Fatalf("%v differs from right-deep under duplicates: %d vs %d triples", qep, len(got), len(want))
		}
	}
}

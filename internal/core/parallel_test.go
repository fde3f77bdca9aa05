package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/testutil"
)

// TestKNNJoinParallelMatchesSequential checks the parallel join returns the
// exact sequential result (same pairs, same order) for various worker
// counts and index kinds. Run with -race to validate the synchronization.
func TestKNNJoinParallelMatchesSequential(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1000, 1000)
	for _, kind := range testutil.AllIndexKinds {
		outer := testutil.BuildRelation(t, kind, testutil.UniformPoints(500, bounds, 1301))
		inner := testutil.BuildRelation(t, kind, testutil.UniformPoints(700, bounds, 1302))

		want := core.KNNJoin(outer, inner, 4, 1, nil)
		for _, workers := range []int{0, 1, 2, 4, 16, 1000} {
			got := core.KNNJoin(outer, inner, 4, workers, nil)
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d pairs, want %d", kind, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: pair %d = %v, want %v (order must match sequential)",
						kind, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestKNNJoinParallelCounters(t *testing.T) {
	bounds := geom.NewRect(0, 0, 100, 100)
	outer := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(300, bounds, 1311))
	inner := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(300, bounds, 1312))

	var seq, par stats.Counters
	core.KNNJoin(outer, inner, 3, 1, &seq)
	core.KNNJoin(outer, inner, 3, 4, &par)

	if par.Neighborhoods != seq.Neighborhoods {
		t.Errorf("parallel neighborhoods = %d, sequential = %d", par.Neighborhoods, seq.Neighborhoods)
	}
	if par.PointsCompared != seq.PointsCompared {
		t.Errorf("parallel points = %d, sequential = %d", par.PointsCompared, seq.PointsCompared)
	}
}

// TestParallelVariantsMatchSequential checks that every algorithm, strategy,
// unchained join order and chained QEP returns the exact sequential result
// — same rows, same order — and the same counters at every worker count.
// Per-worker neighborhood caches are the one sanctioned difference: extra
// workers miss where the sequential cache hits, so the cached chained plans
// hold only the lookup total and the uncached neighborhood count fixed. Run
// with -race to validate the synchronization.
func TestParallelVariantsMatchSequential(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1000, 1000)
	a := testutil.BuildRelation(t, testutil.Grid, testutil.ClusteredPoints(500, 5, 40, bounds, 1401))
	b := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(600, bounds, 1402))
	cRel := testutil.BuildRelation(t, testutil.Grid, testutil.ClusteredPoints(400, 4, 50, bounds, 1403))
	f := geom.Point{X: 400, Y: 600}
	rng := geom.NewRect(300, 300, 700, 700)
	const kJoin, kSel = 4, 12

	type variant struct {
		name   string
		cached bool // per-worker neighborhood caches
		run    func(workers int, c *stats.Counters) any
	}
	cases := []variant{
		{"KNNJoin", false, func(w int, c *stats.Counters) any { return core.KNNJoin(a, b, kJoin, w, c) }},
		{"SelectInnerJoinConceptual", false, func(w int, c *stats.Counters) any {
			return core.SelectInnerJoinConceptual(a, b, f, kJoin, kSel, w, c)
		}},
		{"SelectInnerJoinCounting", false, func(w int, c *stats.Counters) any {
			return core.SelectInnerJoinCounting(a, b, f, kJoin, kSel, w, c)
		}},
		{"SelectInnerJoinBlockMarking", false, func(w int, c *stats.Counters) any {
			return core.SelectInnerJoinBlockMarking(a, b, f, kJoin, kSel, core.BlockMarkingOptions{}, w, c)
		}},
		{"SelectInnerJoinBlockMarking-exhaustive", false, func(w int, c *stats.Counters) any {
			return core.SelectInnerJoinBlockMarking(a, b, f, kJoin, kSel, core.BlockMarkingOptions{Exhaustive: true}, w, c)
		}},
		{"SelectOuterJoin", false, func(w int, c *stats.Counters) any {
			return core.SelectOuterJoin(a, b, f, kSel, kJoin, w, c)
		}},
		{"RangeInnerJoinConceptual", false, func(w int, c *stats.Counters) any {
			return core.RangeInnerJoinConceptual(a, b, rng, kJoin, w, c)
		}},
		{"RangeInnerJoinCounting", false, func(w int, c *stats.Counters) any {
			return core.RangeInnerJoinCounting(a, b, rng, kJoin, w, c)
		}},
		{"RangeInnerJoinBlockMarking", false, func(w int, c *stats.Counters) any {
			return core.RangeInnerJoinBlockMarking(a, b, rng, kJoin, core.BlockMarkingOptions{}, w, c)
		}},
		{"UnchainedConceptual", false, func(w int, c *stats.Counters) any {
			return core.UnchainedConceptual(a, b, cRel, kJoin, kJoin, w, c)
		}},
	}
	for _, order := range []core.JoinOrder{core.OrderAuto, core.OrderABFirst, core.OrderCBFirst} {
		name := "UnchainedBlockMarking"
		if order != core.OrderAuto {
			name += "-" + order.String()
		}
		cases = append(cases, variant{name, false, func(w int, c *stats.Counters) any {
			return core.UnchainedBlockMarking(a, b, cRel, kJoin, kJoin, order, w, c)
		}})
	}
	for _, qep := range []core.ChainedQEP{core.ChainedAuto, core.ChainedRightDeep, core.ChainedJoinIntersection,
		core.ChainedNestedJoin, core.ChainedNestedJoinCached} {
		cached := qep == core.ChainedAuto || qep == core.ChainedNestedJoinCached
		cases = append(cases, variant{"ChainedJoins/" + qep.String(), cached, func(w int, c *stats.Counters) any {
			return core.ChainedJoins(a, b, cRel, kJoin, kJoin, qep, w, c)
		}})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var seq stats.Counters
			want := tc.run(1, &seq)
			if seq.Neighborhoods == 0 {
				t.Fatal("sequential run computed no neighborhoods")
			}
			for _, workers := range []int{2, 4, 16} {
				var par stats.Counters
				if got := tc.run(workers, &par); !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: result diverges from the sequential run", workers)
				}
				if !tc.cached {
					if par != seq {
						t.Fatalf("workers=%d: counters %+v, sequential %+v", workers, par, seq)
					}
					continue
				}
				if par.CacheHits+par.CacheMisses != seq.CacheHits+seq.CacheMisses ||
					par.Neighborhoods-par.CacheMisses != seq.Neighborhoods-seq.CacheMisses {
					t.Fatalf("workers=%d: cache counters %+v, sequential %+v", workers, par, seq)
				}
			}
		})
	}
}

func TestKNNJoinParallelDegenerate(t *testing.T) {
	bounds := geom.NewRect(0, 0, 10, 10)
	outer := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(5, bounds, 1321))
	inner := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(5, bounds, 1322))

	if got := core.KNNJoin(outer, inner, 0, 4, nil); len(got) != 0 {
		t.Errorf("k=0 must return no pairs")
	}
	got := core.KNNJoin(outer, inner, 10, 4, nil)
	if len(got) != 25 {
		t.Errorf("oversized k: %d pairs, want 25", len(got))
	}
}

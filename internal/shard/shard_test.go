package shard

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/index/grid"
	"repro/internal/locality"
	"repro/internal/stats"
	"repro/internal/testutil"
)

var testBounds = geom.NewRect(0, 0, 1000, 1000)

func gridBuild(st *geom.PointStore) (index.Index, error) {
	return grid.NewFromStore(st, grid.Options{TargetPerCell: 16, Bounds: testBounds})
}

func testPoints(n int, seed int64) []geom.Point {
	return testutil.UniformPoints(n, testBounds, seed)
}

// TestPartitionPreservesIDs checks that every policy scatters each input
// point — with its global stable ID — to exactly one shard.
func TestPartitionPreservesIDs(t *testing.T) {
	pts := testPoints(257, 1)
	for _, policy := range []Policy{PolicyHash, PolicySpatial} {
		for _, s := range []int{1, 2, 3, 7, 300} {
			stores := Partition(pts, s, policy)
			if len(stores) != s {
				t.Fatalf("%v/%d: got %d stores", policy, s, len(stores))
			}
			seen := make([]int, len(pts))
			total := 0
			for _, st := range stores {
				total += st.Len()
				for i := 0; i < st.Len(); i++ {
					id := int(st.ID(i))
					if id < 0 || id >= len(pts) {
						t.Fatalf("%v/%d: ID %d out of range", policy, s, id)
					}
					seen[id]++
					if st.At(i) != pts[id] {
						t.Fatalf("%v/%d: ID %d carries %v, want %v", policy, s, id, st.At(i), pts[id])
					}
				}
			}
			if total != len(pts) {
				t.Fatalf("%v/%d: partition holds %d points, want %d", policy, s, total, len(pts))
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("%v/%d: ID %d appears %d times", policy, s, id, n)
				}
			}
		}
	}
}

// TestPartitionDeterministic checks the partition is a pure function of its
// inputs.
func TestPartitionDeterministic(t *testing.T) {
	pts := testPoints(123, 2)
	for _, policy := range []Policy{PolicyHash, PolicySpatial} {
		a := Partition(pts, 5, policy)
		b := Partition(pts, 5, policy)
		for i := range a {
			if !reflect.DeepEqual(a[i], b[i]) {
				t.Fatalf("%v: shard %d differs between runs", policy, i)
			}
		}
	}
}

// TestSpatialPartitionBalance checks the sort-tile cut keeps shard sizes
// within a couple of points of each other.
func TestSpatialPartitionBalance(t *testing.T) {
	pts := testPoints(500, 3)
	for _, s := range []int{2, 3, 4, 7, 9} {
		stores := Partition(pts, s, PolicySpatial)
		minLen, maxLen := stores[0].Len(), stores[0].Len()
		for _, st := range stores[1:] {
			if st.Len() < minLen {
				minLen = st.Len()
			}
			if st.Len() > maxLen {
				maxLen = st.Len()
			}
		}
		if maxLen-minLen > 2 {
			t.Fatalf("S=%d: shard sizes spread %d..%d", s, minLen, maxLen)
		}
	}
}

func buildGroup(t *testing.T, pts []geom.Point, s int, policy Policy) Group {
	t.Helper()
	rel, err := New(pts, s, policy, 0, gridBuild)
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	return rel.Group()
}

// TestMergedNeighborhoodExact compares the probe's merged neighborhoods
// against a single searcher over the unpartitioned points: same points, same
// order, same distances, at every shard count.
func TestMergedNeighborhoodExact(t *testing.T) {
	pts := testPoints(400, 4)
	ix, err := grid.New(pts, grid.Options{TargetPerCell: 16, Bounds: testBounds})
	if err != nil {
		t.Fatal(err)
	}
	single := core.NewRelation(ix)

	rng := rand.New(rand.NewSource(5))
	for _, policy := range []Policy{PolicyHash, PolicySpatial} {
		for _, s := range []int{1, 2, 3, 7} {
			g := buildGroup(t, pts, s, policy)
			pr := acquire(nil, g)
			for trial := 0; trial < 30; trial++ {
				f := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
				k := 1 + rng.Intn(20)
				want := single.S.Neighborhood(f, k, nil)
				got := pr.neighborhood(f, k)
				if !reflect.DeepEqual(want.Points, got.Points) {
					t.Fatalf("%v/S=%d: merged neighborhood of %v (k=%d) differs:\n got %v\nwant %v",
						policy, s, f, k, got.Points, want.Points)
				}
				if !reflect.DeepEqual(want.Dists, got.Dists) {
					t.Fatalf("%v/S=%d: merged distances differ", policy, s)
				}
			}
			pr.release(nil)
		}
	}
}

// TestMergedNeighborhoodKeepsDuplicates checks co-located points are not
// deduped by the gather: the merged multiset matches NaiveKNN over the raw
// points.
func TestMergedNeighborhoodKeepsDuplicates(t *testing.T) {
	pts := []geom.Point{
		{X: 10, Y: 10}, {X: 10, Y: 10}, {X: 10, Y: 10},
		{X: 500, Y: 500}, {X: 600, Y: 600}, {X: 10, Y: 20},
	}
	for _, s := range []int{2, 3} {
		g := buildGroup(t, pts, s, PolicyHash)
		pr := acquire(nil, g)
		f := geom.Point{X: 11, Y: 11}
		for k := 1; k <= len(pts); k++ {
			want := locality.NaiveKNN(pts, f, k)
			got := pr.neighborhood(f, k)
			if !reflect.DeepEqual(want.Points, got.Points) {
				t.Fatalf("S=%d k=%d: got %v, want %v", s, k, got.Points, want.Points)
			}
		}
		pr.release(nil)
	}
}

// TestJoinMatchesCore compares the scatter/gather join against the core
// sequential join (canonically sorted) with sharded and mixed operands.
func TestJoinMatchesCore(t *testing.T) {
	outerPts := testPoints(220, 6)
	innerPts := testPoints(180, 7)
	outerIx, _ := grid.New(outerPts, grid.Options{TargetPerCell: 16, Bounds: testBounds})
	innerIx, _ := grid.New(innerPts, grid.Options{TargetPerCell: 16, Bounds: testBounds})
	outerSingle, innerSingle := core.NewRelation(outerIx), core.NewRelation(innerIx)

	want := core.KNNJoin(outerSingle, innerSingle.Acquire(), 4, 1, nil)
	core.SortPairs(want)

	for _, workers := range []int{1, 3} {
		for _, policy := range []Policy{PolicyHash, PolicySpatial} {
			outerG := buildGroup(t, outerPts, 3, policy)
			innerG := buildGroup(t, innerPts, 2, policy)
			cases := map[string][2]Group{
				"both-sharded": {outerG, innerG},
				"outer-single": {SingleGroup(outerSingle), innerG},
				"inner-single": {outerG, SingleGroup(innerSingle)},
			}
			for name, gs := range cases {
				got := Join(nil, gs[0], gs[1], 4, workers, nil)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%v/%s/workers=%d: join differs (%d vs %d pairs)",
						policy, name, workers, len(got), len(want))
				}
			}
		}
	}
}

// TestProbeStatsFold checks probe operation counts land both in the group's
// per-shard lifetime counters and in the query counter.
func TestProbeStatsFold(t *testing.T) {
	pts := testPoints(300, 8)
	rel, err := New(pts, 3, PolicyHash, 0, gridBuild)
	if err != nil {
		t.Fatal(err)
	}
	var c stats.Counters
	pr := acquire(nil, rel.Group())
	pr.neighborhood(geom.Point{X: 500, Y: 500}, 5)
	pr.release(&c)

	if c.Neighborhoods != 3 {
		t.Fatalf("query counter saw %d neighborhoods, want 3 (one per shard)", c.Neighborhoods)
	}
	sum := int64(0)
	for i := 0; i < rel.NumShards(); i++ {
		snap := rel.ShardCounters(i).Snapshot()
		if snap.Neighborhoods != 1 {
			t.Fatalf("shard %d lifetime counter saw %d neighborhoods, want 1", i, snap.Neighborhoods)
		}
		sum += snap.PointsCompared
	}
	if sum != c.PointsCompared {
		t.Fatalf("per-shard PointsCompared sum %d != query counter %d", sum, c.PointsCompared)
	}
}

// TestBoundedPoolDegradation checks the scatter crew degrades instead of
// deadlocking when shard pools are bounded below the worker count, and the
// result is still exact.
func TestBoundedPoolDegradation(t *testing.T) {
	outerPts := testPoints(200, 9)
	innerPts := testPoints(150, 10)
	innerSharded, err := New(innerPts, 3, PolicySpatial, 1, gridBuild) // one handle per shard
	if err != nil {
		t.Fatal(err)
	}
	outerG := buildGroup(t, outerPts, 2, PolicyHash)

	outerIx, _ := grid.New(outerPts, grid.Options{TargetPerCell: 16, Bounds: testBounds})
	innerIx, _ := grid.New(innerPts, grid.Options{TargetPerCell: 16, Bounds: testBounds})
	want := core.KNNJoin(core.NewRelation(outerIx), core.NewRelation(innerIx).Acquire(), 3, 1, nil)
	core.SortPairs(want)

	got := Join(nil, outerG, innerSharded.Group(), 3, 8, nil)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("degraded join differs: %d vs %d pairs", len(got), len(want))
	}
}

// tightBuild indexes each shard over its own extent (empty shards over the
// test bounds), so shard MINDISTs differ and the skip rule fires.
func tightBuild(st *geom.PointStore) (index.Index, error) {
	if st.Len() == 0 {
		return gridBuild(st)
	}
	return grid.NewFromStore(st, grid.Options{TargetPerCell: 16})
}

// TestNeighborhoodsMatchPerFocal holds the batched rounds gather equal to
// the per-focal probe in both modes: the same spans, byte for byte, and the
// same per-shard probes (equal Neighborhoods counts), at every shard count.
func TestNeighborhoodsMatchPerFocal(t *testing.T) {
	pts := testPoints(900, 21)
	rng := rand.New(rand.NewSource(22))
	for _, policy := range []Policy{PolicyHash, PolicySpatial} {
		for _, s := range []int{1, 2, 3, 7} {
			rel, err := New(pts, s, policy, 0, tightBuild)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 6; trial++ {
				focals := testPoints(40, int64(100+trial))
				k := 1 + rng.Intn(20)
				var thresholds []float64
				if trial%2 == 1 {
					thresholds = make([]float64, len(focals))
					for i := range thresholds {
						thresholds[i] = rng.Float64()*40000 - 2000 // some negative
					}
				}
				var seqStats, batchStats stats.Counters
				seq := acquire(nil, rel.Group())
				var want [][]geom.Point
				for i, f := range focals {
					var nb *locality.Neighborhood
					if thresholds == nil {
						nb = seq.neighborhood(f, k)
					} else if thresholds[i] < 0 {
						nb = &locality.Neighborhood{}
					} else {
						nb = seq.neighborhoodWithinSq(f, k, thresholds[i])
					}
					want = append(want, append([]geom.Point(nil), nb.Points...))
				}
				seq.release(&seqStats)

				pr := acquire(nil, rel.Group())
				res := pr.neighborhoods(focals, k, thresholds)
				if res.Len() != len(focals) {
					t.Fatalf("%v/S=%d: %d spans for %d focals", policy, s, res.Len(), len(focals))
				}
				for i := range focals {
					got, _ := res.Span(i)
					if len(got) == 0 && len(want[i]) == 0 {
						continue
					}
					if !reflect.DeepEqual(want[i], got) {
						t.Fatalf("%v/S=%d trial %d focal %d: batched span differs:\n got %v\nwant %v",
							policy, s, trial, i, got, want[i])
					}
				}
				pr.release(&batchStats)
				if thresholds == nil && seqStats.Neighborhoods != batchStats.Neighborhoods {
					t.Fatalf("%v/S=%d: batched gather ran %d shard neighborhoods, per-focal %d",
						policy, s, batchStats.Neighborhoods, seqStats.Neighborhoods)
				}
			}
		}
	}
}

package twoknn_test

import (
	"math/rand"
	"reflect"
	"testing"

	twoknn "repro"
	"repro/internal/locality"
)

// TestMutableRelationDifferential drives a random insert/remove/move stream
// through a mutable Relation whose base grid is 8×8 (400 points, 7 per
// cell) and, after every step, holds KNNSelect and TwoSelects to the naive
// oracle over the live points. Now and then an insert duplicates a live
// point, so removals by ID must drop exactly one instance.
func TestMutableRelationDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	fresh := func() twoknn.Point {
		return twoknn.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	base := make([]twoknn.Point, 400)
	for i := range base {
		base[i] = fresh()
	}
	runMutableStream(t, rng, base, 7, 0, fresh)
}

// TestMutableRelationSparseCells runs the stream over a few dozen clustered
// points indexed one per cell, compacting every 20 steps. Removals keep
// tombstoning the only point of a base cell, and each compaction refills
// cells that inserts landed in, so the overlay and the rebuilt grids both
// see cells that empty and refill.
func TestMutableRelationSparseCells(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	centers := []twoknn.Point{{X: 120, Y: 130}, {X: 700, Y: 820}, {X: 910, Y: 60}}
	fresh := func() twoknn.Point {
		if rng.Intn(8) == 0 { // now and then, anywhere
			return twoknn.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		}
		c := centers[rng.Intn(len(centers))]
		return twoknn.Point{X: c.X + rng.Float64()*60, Y: c.Y + rng.Float64()*60}
	}
	base := make([]twoknn.Point, 30)
	for i := range base {
		base[i] = fresh()
	}
	runMutableStream(t, rng, base, 1, 20, fresh)
}

// runMutableStream drives a 300-step insert/remove/move stream, drawn from
// rng and fresh, through a Relation over base built with the given block
// capacity, checking it against the naive oracle after every step. The
// relation compacts every compactEvery steps (0: only mid-stream and at
// the end); automatic compaction is off so the schedule is deterministic.
func runMutableStream(t *testing.T, rng *rand.Rand, base []twoknn.Point, capacity, compactEvery int, fresh func() twoknn.Point) {
	t.Helper()
	rel, err := twoknn.NewRelation("stream", base, twoknn.WithBounds(twoknn.NewRect(0, 0, 1000, 1000)),
		twoknn.WithBlockCapacity(capacity), twoknn.WithCompactThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	// The live points and their stable IDs, index-aligned.
	live := append([]twoknn.Point(nil), base...)
	ids := make([]int32, len(base))
	for i := range ids {
		ids[i] = int32(i)
	}

	f1 := twoknn.Point{X: 420, Y: 380}
	f2 := twoknn.Point{X: 600, Y: 610}
	const k1, k2 = 9, 7
	compare := func(step int) {
		t.Helper()
		if rel.Len() != len(live) {
			t.Fatalf("step %d: Len %d, %d live points", step, rel.Len(), len(live))
		}
		nbr1 := locality.NaiveKNN(live, f1, k1)
		sel, err := rel.KNNSelect(f1, k1)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !reflect.DeepEqual(sel, nbr1.Points) {
			t.Fatalf("step %d: KNNSelect diverges from the naive oracle\n got  %v\n want %v", step, sel, nbr1.Points)
		}
		two, err := twoknn.TwoSelects(rel, f1, k1, f2, k2)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want := nbr1.Intersect(locality.NaiveKNN(live, f2, k2))
		twoknn.SortPoints(two)
		twoknn.SortPoints(want)
		if len(two) != len(want) || len(want) > 0 && !reflect.DeepEqual(two, want) {
			t.Fatalf("step %d: TwoSelects diverges from the naive oracle\n got  %v\n want %v", step, two, want)
		}
	}

	compare(-1)
	for step := 0; step < 300; step++ {
		switch step % 4 {
		case 0, 1: // insert, one in eight a duplicate of a live point
			p := fresh()
			if len(live) > 0 && rng.Intn(8) == 0 {
				p = live[rng.Intn(len(live))]
			}
			ids = append(ids, rel.Insert(p)[0])
			live = append(live, p)
		case 2: // remove a random live point
			i := rng.Intn(len(live))
			if n := rel.Remove(ids[i]); n != 1 {
				t.Fatalf("step %d: Remove(%d) = %d", step, ids[i], n)
			}
			last := len(live) - 1
			live[i], ids[i] = live[last], ids[last]
			live, ids = live[:last], ids[:last]
		default: // move a random live point
			i := rng.Intn(len(live))
			to := fresh()
			if !rel.Update(ids[i], to) {
				t.Fatalf("step %d: Update(%d) missed a live point", step, ids[i])
			}
			live[i] = to
		}
		if compactEvery > 0 && step%compactEvery == compactEvery-1 || step == 149 {
			if err := rel.Compact(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		compare(step)
	}
	if err := rel.Compact(); err != nil {
		t.Fatal(err)
	}
	compare(300)
}

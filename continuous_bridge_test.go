package twoknn_test

import (
	"math/rand"
	"sort"
	"testing"

	twoknn "repro"
	"repro/internal/continuous"
)

// TestContinuousBridgeDifferential drives one mutation stream through both
// mutability layers the repo now has — the event-emitting continuous
// monitors (internal/continuous, single-writer, point-identity) and the
// snapshot-queryable mutable Relation (delta overlay, stable IDs) — and
// holds their answers identical at every step. The monitors incrementally
// maintain σ_{k,f} and σ∩σ; the mutable relation answers the same
// predicates from scratch on its current snapshot. Agreement means the two
// update paths implement the same query semantics over the same stream.
func TestContinuousBridgeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	fresh := func() twoknn.Point {
		// Distinct coordinates so point-identity removal on the continuous
		// side picks the same point as ID-based removal on the mutable side.
		return twoknn.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	base := make([]twoknn.Point, 400)
	for i := range base {
		base[i] = fresh()
	}
	runContinuousBridge(t, rng, 8, 8, base, fresh)
}

// TestContinuousBridgeSparseCells runs the bridge on a fine 32×32 grid over
// a few dozen clustered points, so the stream keeps emptying and refilling
// cells of the continuous side's dynamic grid — the transitions its
// occupancy bits must follow.
func TestContinuousBridgeSparseCells(t *testing.T) {
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
	runContinuousBridge(t, rng, 32, 32, base, fresh)
}

// runContinuousBridge drives a 300-step insert/remove/move stream, drawn from
// rng and fresh, through a continuous relation on a cols×rows grid over
// [0,1000]² and a mutable Relation, comparing their answers as it goes.
func runContinuousBridge(t *testing.T, rng *rand.Rand, cols, rows int, base []twoknn.Point, fresh func() twoknn.Point) {
	t.Helper()
	bounds := twoknn.NewRect(0, 0, 1000, 1000)
	cont, err := continuous.NewRelation(bounds, cols, rows, base)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := twoknn.NewRelation("bridge", base,
		twoknn.WithBlockCapacity(16), twoknn.WithCompactThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	// Live bookkeeping: the ID of every live point, by value (all distinct).
	idOf := make(map[twoknn.Point]int32, len(base))
	live := make([]twoknn.Point, len(base))
	copy(live, base)
	for i, p := range base {
		idOf[p] = int32(i)
	}

	f1 := twoknn.Point{X: 420, Y: 380}
	f2 := twoknn.Point{X: 600, Y: 610}
	const k1, k2 = 9, 7
	sel, err := cont.MonitorSelect(f1, k1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := cont.MonitorTwoSelects(f1, k1, f2, k2)
	if err != nil {
		t.Fatal(err)
	}

	sorted := func(ps []twoknn.Point) []twoknn.Point {
		out := append([]twoknn.Point(nil), ps...)
		sort.Slice(out, func(i, j int) bool {
			if out[i].X != out[j].X {
				return out[i].X < out[j].X
			}
			return out[i].Y < out[j].Y
		})
		return out
	}
	equal := func(a, b []twoknn.Point) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	compare := func(step int) {
		t.Helper()
		if cont.Len() != rel.Len() {
			t.Fatalf("step %d: continuous Len %d != mutable Len %d", step, cont.Len(), rel.Len())
		}
		wantSel, err := rel.KNNSelect(f1, k1)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got := sorted(sel.Current()); !equal(got, sorted(wantSel)) {
			t.Fatalf("step %d: select monitor diverges from mutable relation\nmonitor %v\nsnapshot %v",
				step, got, sorted(wantSel))
		}
		wantTwo, err := twoknn.TwoSelects(rel, f1, k1, f2, k2)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got := sorted(two.Current()); !equal(got, sorted(wantTwo)) {
			t.Fatalf("step %d: two-select monitor diverges from mutable relation\nmonitor %v\nsnapshot %v",
				step, got, sorted(wantTwo))
		}
	}

	compare(-1)
	for step := 0; step < 300; step++ {
		switch step % 4 {
		case 0, 1: // insert
			p := fresh()
			if err := cont.Insert(p); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			ids := rel.Insert(p)
			idOf[p] = ids[0]
			live = append(live, p)
		case 2: // remove a random live point
			i := rng.Intn(len(live))
			p := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if !cont.Remove(p) {
				t.Fatalf("step %d: continuous Remove(%v) missed a live point", step, p)
			}
			if n := rel.Remove(idOf[p]); n != 1 {
				t.Fatalf("step %d: mutable Remove(%d) = %d", step, idOf[p], n)
			}
			delete(idOf, p)
		default: // move a random live point
			i := rng.Intn(len(live))
			from, to := live[i], fresh()
			if err := cont.Move(from, to); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if !rel.Update(idOf[from], to) {
				t.Fatalf("step %d: mutable Update(%d) missed a live point", step, idOf[from])
			}
			idOf[to] = idOf[from]
			delete(idOf, from)
			live[i] = to
		}
		sel.Drain() // events are the monitors' output; the bridge only checks state
		two.Drain()
		if step%10 == 9 {
			compare(step)
		}
		if step == 149 { // mid-stream merge must not perturb the differential
			if err := rel.Compact(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := rel.Compact(); err != nil {
		t.Fatal(err)
	}
	compare(300)
}

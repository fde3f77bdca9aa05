package overlay

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/index/grid"
	"repro/internal/locality"
)

// checkOverlayKNN snapshots s and compares its kNN answers with the naive
// oracle over live (ID → point), for each focal and a spread of k.
func checkOverlayKNN(t *testing.T, s *Store, live map[int32]geom.Point, focals []geom.Point) {
	t.Helper()
	pts := make([]geom.Point, 0, len(live))
	for _, p := range live {
		pts = append(pts, p)
	}
	sr := locality.NewSearcher(s.Snapshot())
	for _, f := range focals {
		for _, k := range []int{1, 3, len(pts) + 2} {
			got := sr.Neighborhood(f, k, nil).Points
			want := locality.NaiveKNN(pts, f, k).Points
			if len(got) != len(want) {
				t.Fatalf("f=%v k=%d: %d neighbors, want %d", f, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("f=%v k=%d: neighbor %d is %v, want %v", f, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestOverlayKNNAfterInsertIntoEmptyGrid inserts points one by one into an
// overlay over an empty 40×40 grid, including a co-located duplicate, and
// holds kNN to the naive oracle after each insert.
func TestOverlayKNNAfterInsertIntoEmptyGrid(t *testing.T) {
	base, err := grid.New(nil, grid.Options{Bounds: geom.NewRect(0, 0, 1000, 1000), Cols: 40, Rows: 40})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(base, 8)
	focals := []geom.Point{{X: 500, Y: 500}, {X: 5, Y: 990}, {X: -300, Y: 1200}}
	if b, _, ok := index.MinDistOrder(s.Snapshot(), focals[0]).Next(); ok {
		t.Fatalf("empty overlay yielded %v", b)
	}
	live := make(map[int32]geom.Point)
	for i, p := range []geom.Point{{X: 990, Y: 10}, {X: 12, Y: 13}, {X: 12, Y: 13}, {X: 480, Y: 700}} {
		s.Insert(p, int32(i))
		live[int32(i)] = p
		checkOverlayKNN(t, s, live, focals)
	}
}

// TestOverlayKNNAfterRemovingLastPointOfCell tombstones, one by one, points
// that are each alone in their cell of a 32×32 base grid, so the base cell
// empties while its occupancy bit stays set, then reinserts one of them
// under a new ID. kNN must match the naive oracle throughout.
func TestOverlayKNNAfterRemovingLastPointOfCell(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1000, 1000)
	rng := rand.New(rand.NewSource(37))
	// Two dense clusters plus isolated points, each alone in its cell.
	var pts []geom.Point
	for _, c := range []geom.Point{{X: 300, Y: 300}, {X: 700, Y: 650}} {
		for i := 0; i < 100; i++ {
			pts = append(pts, geom.Point{X: c.X + rng.NormFloat64()*10, Y: c.Y + rng.NormFloat64()*10})
		}
	}
	isolated := []geom.Point{{X: 100, Y: 900}, {X: 900, Y: 100}, {X: 501, Y: 499}}
	pts = append(pts, isolated...)
	base, err := grid.New(pts, grid.Options{Bounds: bounds, Cols: 32, Rows: 32})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(base, 8)
	live := make(map[int32]geom.Point, len(pts))
	for i, p := range pts {
		live[int32(i)] = p // grid.New assigns IDs in input order
	}
	focals := append([]geom.Point{{X: 0, Y: 0}}, isolated...)
	checkOverlayKNN(t, s, live, focals)
	for j, p := range isolated {
		if base.Locate(p).Count() != 1 {
			t.Fatalf("%v is not alone in its cell", p)
		}
		id := int32(len(pts) - len(isolated) + j)
		if !s.Remove(id) {
			t.Fatalf("Remove(%d) missed %v", id, p)
		}
		delete(live, id)
		checkOverlayKNN(t, s, live, focals)
	}
	// Reinserting refills the emptied cell's region through the delta.
	s.Insert(isolated[0], int32(len(pts)))
	live[int32(len(pts))] = isolated[0]
	checkOverlayKNN(t, s, live, focals)
}

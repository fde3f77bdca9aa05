package grid

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
)

// clusteredPoints returns n points in a few tight Gaussian blobs inside
// bounds, so a fine grid over bounds is almost entirely empty.
func clusteredPoints(n, clusters int, sigma float64, bounds geom.Rect, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	centers := uniformPoints(clusters, bounds, seed+1)
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[rng.Intn(clusters)]
		pts[i] = geom.Point{
			X: min(max(c.X+rng.NormFloat64()*sigma, bounds.MinX), bounds.MaxX),
			Y: min(max(c.Y+rng.NormFloat64()*sigma, bounds.MinY), bounds.MaxY),
		}
	}
	return pts
}

// skewedGrid is the skewed fixture: 20k clustered points on a 10k² square
// under a 100×100 grid, of which well over 90% of the cells are empty.
func skewedGrid(t *testing.T) *Grid {
	t.Helper()
	bounds := geom.NewRect(0, 0, 10000, 10000)
	g, err := New(clusteredPoints(20000, 8, 60, bounds, 31), Options{Bounds: bounds, Cols: 100, Rows: 100})
	if err != nil {
		t.Fatal(err)
	}
	if frac := emptyFraction(g); frac < 0.9 {
		t.Fatalf("skewed fixture has only %.2f of its cells empty", frac)
	}
	return g
}

func emptyFraction(ix index.Index) float64 {
	empty := 0
	for _, b := range ix.Blocks() {
		if b.Count() == 0 {
			empty++
		}
	}
	return float64(empty) / float64(len(ix.Blocks()))
}

// checkOccupancyBits holds both occupancy bitsets to the block counts.
func checkOccupancyBits(t *testing.T, g *Grid) {
	t.Helper()
	for _, b := range g.Blocks() {
		r, c := b.ID/g.cols, b.ID%g.cols
		want := b.Count() > 0
		if got := nextSet(g.rowBits, b.ID, b.ID) == b.ID; got != want {
			t.Fatalf("cell %d: row-major bit %v, count %d", b.ID, got, b.Count())
		}
		i := c*g.rows + r
		if got := nextSet(g.colBits, i, i) == i; got != want {
			t.Fatalf("cell %d: column-major bit %v, count %d", b.ID, got, b.Count())
		}
	}
}

func TestRingIterSkewedMatchesEagerScan(t *testing.T) {
	g := skewedGrid(t)
	checkOccupancyBits(t, g)
	checkRingIterOrder(t, g, 32)

	// Non-square and one-row grids put ring sides on word boundaries
	// differently in the two bitsets.
	bounds := geom.NewRect(-50, -50, 50, 50)
	for _, dims := range [][2]int{{130, 7}, {7, 130}, {200, 1}, {1, 200}} {
		g, err := New(clusteredPoints(300, 3, 2, bounds, 33), Options{Bounds: bounds, Cols: dims[0], Rows: dims[1]})
		if err != nil {
			t.Fatal(err)
		}
		checkOccupancyBits(t, g)
		checkRingIterOrder(t, g, 34)
	}
}

// TestRingIterSkewedAllocs keeps pooled grid iteration allocation-free on
// the skewed fixture, where rings are mostly empty.
func TestRingIterSkewedAllocs(t *testing.T) {
	g := skewedGrid(t)
	pool := index.NewIterPool(g)
	focals := uniformPoints(64, g.Bounds(), 35)
	drain := func() {
		for _, f := range focals {
			for _, it := range []index.BlockIter{pool.MinDist(f), pool.MaxDist(f)} {
				for covered := 0; covered < 64; {
					b, _, ok := it.Next()
					if !ok {
						break
					}
					covered += b.Count()
				}
			}
		}
	}
	drain() // size the heaps
	if avg := testing.AllocsPerRun(20, drain); avg != 0 {
		t.Fatalf("pooled ring iteration allocates %v per round, want 0", avg)
	}
}

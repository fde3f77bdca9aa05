package core_test

// Adversarial grid fixtures in the differential matrix: every fixture runs
// through a plain grid, through the same live set as a mutated overlay
// snapshot over a grid base, and through a scan oracle that hides the grid's
// incremental iterators, so every block ordering is the eager scan over all
// cells, empty ones included. All three must return byte-identical answers
// for every query shape. The fixtures target the grid's occupancy index: one
// occupied cell, co-located duplicates, ≥95% empty cells, a single point,
// coordinates near ±1e15, an overlay insert into a cell that is empty in the
// base, and an overlay remove that empties a cell.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/index/grid"
	"repro/internal/index/overlay"
	"repro/internal/testutil"
)

// scanOracle exposes only the index.Index methods of a grid (plus its
// tiling), so index.MinDistOrder / MaxDistOrder fall back to the eager scan
// over every block.
type scanOracle struct{ index.Index }

func (scanOracle) TilesSpace() bool { return true }

type advFixture struct {
	name string
	opt  grid.Options // grid options shared by every variant
	base []geom.Point // points the (base) grid is built over
	ins  []geom.Point // overlay inserts
	rm   []int32      // overlay removes, by base input position
}

// live returns the fixture's live point set: base minus removals plus
// inserts.
func (fx advFixture) live() []geom.Point {
	dead := make(map[int32]bool, len(fx.rm))
	for _, id := range fx.rm {
		dead[id] = true
	}
	var out []geom.Point
	for i, p := range fx.base {
		if !dead[int32(i)] {
			out = append(out, p)
		}
	}
	return append(out, fx.ins...)
}

func advFixtures() []advFixture {
	square := geom.NewRect(0, 0, 1000, 1000)
	fine := grid.Options{Bounds: square, Cols: 16, Rows: 16}
	clustered := testutil.ClusteredPoints(120, 3, 4, square, 901)
	coLocated := make([]geom.Point, 60)
	for i := range coLocated {
		coLocated[i] = geom.Point{X: 412.5, Y: 97.25}
	}
	var extreme []geom.Point
	for i, p := range testutil.UniformPoints(80, geom.NewRect(-1e6, -1e6, 1e6, 1e6), 902) {
		sign := 1.0
		if i%2 == 1 {
			sign = -1
		}
		extreme = append(extreme, geom.Point{X: sign*1e15 + p.X, Y: sign*1e15 + p.Y})
	}
	// A base with one isolated point alone in its fine cell.
	isolated := append(append([]geom.Point(nil), clustered...), geom.Point{X: 990, Y: 990})
	return []advFixture{
		{name: "one-cell", opt: grid.Options{Bounds: square, TargetPerCell: 4},
			base: testutil.UniformPoints(50, geom.NewRect(10, 10, 30, 30), 903)},
		{name: "co-located", opt: grid.Options{TargetPerCell: 4}, base: coLocated},
		{name: "clustered-sparse", opt: fine, base: clustered},
		{name: "single-point", opt: grid.Options{}, base: []geom.Point{{X: 3, Y: 4}}},
		{name: "extreme-coordinates", opt: grid.Options{TargetPerCell: 4}, base: extreme},
		{name: "overlay-insert-into-empty-cell", opt: fine, base: clustered,
			ins: []geom.Point{{X: 5, Y: 995}, {X: 5, Y: 995}, {X: 700, Y: 20}}},
		{name: "overlay-remove-empties-cell", opt: fine, base: isolated,
			rm: []int32{int32(len(isolated) - 1), 0}},
	}
}

// advVariants builds the three relations every fixture runs through.
func advVariants(t *testing.T, fx advFixture) map[string]*core.Relation {
	t.Helper()
	live := fx.live()
	g, err := grid.New(live, fx.opt)
	if err != nil {
		t.Fatal(err)
	}
	base, err := grid.New(fx.base, fx.opt)
	if err != nil {
		t.Fatal(err)
	}
	st := overlay.NewStore(base, 4)
	for i, p := range fx.ins {
		st.Insert(p, int32(len(fx.base)+i))
	}
	for _, id := range fx.rm {
		if !st.Remove(id) {
			t.Fatalf("overlay remove of %d missed", id)
		}
	}
	// A ghost insert+remove keeps the snapshot an overlay even for
	// fixtures without mutations, with one dead delta chunk as a side block.
	const ghost = 1 << 30
	st.Insert(fx.base[0], ghost)
	st.Remove(ghost)
	return map[string]*core.Relation{
		"grid":         core.NewRelation(g),
		"grid+overlay": core.NewRelation(st.Snapshot()),
		"scan":         core.NewRelation(scanOracle{g}),
	}
}

// advFocals returns the focal points every fixture is queried at.
func advFocals(live []geom.Point) []geom.Point {
	mbr := geom.StoreFromPoints(live).MBR(0, len(live))
	return []geom.Point{
		live[0],
		mbr.Center(),
		{X: mbr.MinX - mbr.Width() - 7, Y: mbr.MaxY + 3}, // outside the data
		{X: 995, Y: 5}, // inside the square fixtures, in an empty cell
	}
}

// advKs returns the k values every fixture is queried with.
func advKs(live []geom.Point) []int { return []int{1, 3, len(live) + 2} }

// advQueries evaluates every query shape against rel (with partner as the
// other join operand), keyed by a description. Join results are in
// SortPairs order; selects keep the engine's canonical order.
func advQueries(rel, partner *core.Relation, live []geom.Point) map[string]any {
	out := make(map[string]any)
	put := func(key string, v any) {
		if ps, ok := v.([]core.Pair); ok {
			v = sortedPairs(ps)
		}
		out[key] = v
	}
	focals := advFocals(live)
	for fi, f := range focals {
		f2 := focals[(fi+1)%len(focals)]
		for _, k := range advKs(live) {
			put(fmt.Sprintf("knn-select f%d k%d", fi, k), core.KNNSelect(rel, f, k, nil))
			put(fmt.Sprintf("two-selects f%d k%d", fi, k), core.TwoSelects(rel, f, k, f2, 4, nil))
			put(fmt.Sprintf("two-selects-conceptual f%d k%d", fi, k), core.TwoSelectsConceptual(rel, f, k, f2, 4, nil))
			for side, pair := range map[string][2]*core.Relation{"outer": {rel, partner}, "inner": {partner, rel}} {
				outer, inner := pair[0], pair[1]
				put(fmt.Sprintf("select-outer-join %s f%d k%d", side, fi, k), core.SelectOuterJoin(outer, inner, f, k, 2, nil))
				put(fmt.Sprintf("sij-conceptual %s f%d k%d", side, fi, k), core.SelectInnerJoinConceptual(outer, inner, f, 2, k, nil))
				put(fmt.Sprintf("sij-counting %s f%d k%d", side, fi, k), core.SelectInnerJoinCounting(outer, inner, f, 2, k, nil))
				for _, exhaustive := range []bool{false, true} {
					put(fmt.Sprintf("sij-block-marking %s f%d k%d exhaustive=%v", side, fi, k, exhaustive),
						core.SelectInnerJoinBlockMarking(outer, inner, f, 2, k, core.BlockMarkingOptions{Exhaustive: exhaustive}, nil))
				}
			}
		}
	}
	for _, k := range []int{1, 4} {
		put(fmt.Sprintf("knn-join self k%d", k), core.KNNJoin(rel, rel, k, nil))
		put(fmt.Sprintf("knn-join outer k%d", k), core.KNNJoin(rel, partner, k, nil))
		put(fmt.Sprintf("knn-join inner k%d", k), core.KNNJoin(partner, rel, k, nil))
	}
	return out
}

func emptyCellFraction(ix index.Index) float64 {
	empty := 0
	for _, b := range ix.Blocks() {
		if b.Count() == 0 {
			empty++
		}
	}
	return float64(empty) / float64(len(ix.Blocks()))
}

func TestAdversarialGridFixtures(t *testing.T) {
	partner := testutil.BuildRelation(t, testutil.Grid, testutil.UniformPoints(100, geom.NewRect(0, 0, 1000, 1000), 904))
	for _, fx := range advFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			live := fx.live()
			variants := advVariants(t, fx)
			if fx.name == "clustered-sparse" {
				if frac := emptyCellFraction(variants["grid"].Ix); frac < 0.95 {
					t.Fatalf("only %.3f of the cells are empty, want ≥ 0.95", frac)
				}
			}
			want := advQueries(variants["grid"], partner, live)
			// Anchor the matrix: the grid's selects match the naive oracle.
			for fi, f := range advFocals(live) {
				for _, k := range advKs(live) {
					key := fmt.Sprintf("knn-select f%d k%d", fi, k)
					if ref := refKNN(live, f, k); !reflect.DeepEqual(want[key], ref) {
						t.Fatalf("grid %s = %v, naive oracle %v", key, want[key], ref)
					}
				}
			}
			for _, name := range []string{"grid+overlay", "scan"} {
				got := advQueries(variants[name], partner, live)
				for key, w := range want {
					if !reflect.DeepEqual(got[key], w) {
						t.Fatalf("%s diverges from grid on %s:\n got %v\nwant %v", name, key, got[key], w)
					}
				}
			}
		})
	}
}

package grid

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/index"
)

// Dynamic is a uniform grid over a *mutable* point set: the cell geometry
// is fixed at construction but points can be inserted and removed. It backs
// the continuous-query support (the paper's Section 7 names incremental
// evaluation of continuous queries as future work; package
// internal/continuous builds it on this index).
//
// Unlike the static indexes, Dynamic keeps no relation-wide store: each of
// its blocks owns a small private geom.PointStore (created through
// index.NewMutableBlock), so insertions and removals are O(1) block-local
// operations while scans still run over flat X/Y arrays. A cell's occupancy
// bit flips on its 0↔1 count transitions, so the ring iterators keep
// yielding exactly the non-empty cells. Stable IDs are assigned from an
// insertion counter.
//
// Dynamic implements index.Index with one contract deviation: blocks mutate.
// Queries and mutations must not run concurrently; the continuous monitors
// serialize them.
type Dynamic struct {
	grid   *Grid
	nextID int32
}

var (
	_ index.Index              = (*Dynamic)(nil)
	_ index.IncrementalScanner = (*Dynamic)(nil)
	_ index.SpaceTiler         = (*Dynamic)(nil)
)

// NewDynamic builds a mutable grid covering bounds with cols x rows cells,
// optionally pre-populated with pts.
func NewDynamic(bounds geom.Rect, cols, rows int, pts []geom.Point) (*Dynamic, error) {
	if bounds.Area() <= 0 {
		return nil, fmt.Errorf("grid: dynamic grid needs bounds with positive area, got %v", bounds)
	}
	if cols <= 0 || rows <= 0 {
		return nil, fmt.Errorf("grid: dynamic grid needs positive dimensions, got %dx%d", cols, rows)
	}
	g, err := New(nil, Options{Bounds: bounds, Cols: cols, Rows: rows})
	if err != nil {
		return nil, err
	}
	// Swap every span block for one owning a private mutable store; the
	// static grid's shared (empty) store is dropped.
	for i, b := range g.blocks {
		g.blocks[i] = index.NewMutableBlock(b.ID, b.Bounds)
	}
	g.store = nil
	d := &Dynamic{grid: g}
	for _, p := range pts {
		if err := d.Insert(p); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Insert adds one point instance. It errors when p lies outside the fixed
// bounds (the cell geometry cannot grow).
func (d *Dynamic) Insert(p geom.Point) error {
	b := d.grid.Locate(p)
	if b == nil {
		return fmt.Errorf("grid: point %v outside dynamic grid bounds %v", p, d.grid.Bounds())
	}
	b.Push(p, d.nextID)
	if b.Count() == 1 {
		d.grid.setOccupied(b.ID, true)
	}
	d.nextID++
	d.grid.n++
	return nil
}

// Remove deletes one instance with exactly p's coordinates, reporting
// whether one existed. With duplicates, exactly one instance is removed.
func (d *Dynamic) Remove(p geom.Point) bool {
	b := d.grid.Locate(p)
	if b == nil {
		return false
	}
	xs, ys := b.XYs()
	for i := range xs {
		if xs[i] == p.X && ys[i] == p.Y {
			b.RemoveAt(i)
			if b.Count() == 0 {
				d.grid.setOccupied(b.ID, false)
			}
			d.grid.n--
			return true
		}
	}
	return false
}

// Blocks implements index.Index.
func (d *Dynamic) Blocks() []*index.Block { return d.grid.Blocks() }

// Locate implements index.Index.
func (d *Dynamic) Locate(p geom.Point) *index.Block { return d.grid.Locate(p) }

// Len implements index.Index.
func (d *Dynamic) Len() int { return d.grid.Len() }

// Bounds implements index.Index.
func (d *Dynamic) Bounds() geom.Rect { return d.grid.Bounds() }

// TilesSpace implements index.SpaceTiler.
func (d *Dynamic) TilesSpace() bool { return true }

// NewMinDistIter implements index.IncrementalScanner.
func (d *Dynamic) NewMinDistIter(p geom.Point) index.BlockIter { return d.grid.NewMinDistIter(p) }

// NewMaxDistIter implements index.IncrementalScanner.
func (d *Dynamic) NewMaxDistIter(p geom.Point) index.BlockIter { return d.grid.NewMaxDistIter(p) }

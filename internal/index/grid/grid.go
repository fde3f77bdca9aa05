// Package grid implements the simple uniform-grid spatial index used in the
// paper's experiments ("We index the data points into a simple grid. Since
// our algorithms are independent of a specific indexing structure, we choose
// a grid in order to be able to see the effectiveness of our algorithms even
// with simple structures.").
//
// The grid covers the bounding box of the data with Cols x Rows equal cells;
// each non-empty region of space corresponds to exactly one cell, and every
// cell — including empty ones — is exposed as a block through Blocks() so
// that MINDIST / MAXDIST contours over the full space are well defined.
//
// Alongside the cells the grid keeps an occupancy index: one bit per cell,
// in a row-major and a column-major bitset. The incremental iterators
// (ringiter.go) walk the sides of each Chebyshev ring as masked word scans
// over these bitsets, so they yield only blocks that hold points and an
// empty stretch of space costs a few word operations rather than a heap
// push and pop per cell. Consumers that need the full tiling (the
// Block-Marking contour scan) enumerate Blocks() eagerly instead.
//
// Construction is a counting sort: one pass tallies points per cell, a
// prefix sum lays the cells out as contiguous spans of one relation-wide
// geom.PointStore, and a stable scatter permutes the input into that
// block-contiguous order — so within each cell, points keep their input
// order, exactly as the former per-cell append produced.
package grid

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/geom"
	"repro/internal/index"
)

// Grid is a uniform-grid index over a static point set.
type Grid struct {
	bounds geom.Rect
	cols   int
	rows   int
	cellW  float64
	cellH  float64
	blocks []*index.Block
	store  *geom.PointStore
	n      int

	// Occupancy bitsets, one bit per cell: rowBits holds cell (c, r) at bit
	// r*cols+c (== block ID), colBits at bit c*rows+r. A bit is set exactly
	// when the cell's block holds at least one point.
	rowBits []uint64
	colBits []uint64
}

var (
	_ index.Index  = (*Grid)(nil)
	_ index.Storer = (*Grid)(nil)
)

// Options configure grid construction.
type Options struct {
	// TargetPerCell is the desired average number of points per cell; the
	// grid dimensions are derived from it. Ignored when Cols and Rows are
	// both set. Defaults to 64, a reasonable balance between per-block
	// pruning granularity and block-scan overhead.
	TargetPerCell int

	// Cols and Rows force exact grid dimensions when both are positive.
	Cols, Rows int

	// Bounds forces the indexed region. When zero, the bounding box of the
	// points (slightly inflated so boundary points stay interior) is used.
	Bounds geom.Rect
}

// New builds a grid over pts, assigning stable point IDs 0..len-1 in input
// order.
//
// New never fails for valid inputs; it returns an error when pts is empty
// and no explicit Bounds is provided, because the indexed region would be
// undefined.
func New(pts []geom.Point, opt Options) (*Grid, error) {
	return NewFromStore(geom.StoreFromPoints(pts), opt)
}

// NewFromStore builds a grid over the points of st, preserving the store's
// IDs. The input store is not modified; the grid owns a block-contiguous
// permutation of it.
func NewFromStore(st *geom.PointStore, opt Options) (*Grid, error) {
	bounds := opt.Bounds
	if bounds == (geom.Rect{}) {
		if st.Len() == 0 {
			return nil, fmt.Errorf("grid: empty point set and no explicit bounds")
		}
		bounds = inflate(st.MBR(0, st.Len()))
	}
	cols, rows := opt.Cols, opt.Rows
	if cols <= 0 || rows <= 0 {
		target := opt.TargetPerCell
		if target <= 0 {
			target = 64
		}
		cells := int(math.Ceil(float64(st.Len()) / float64(target)))
		if cells < 1 {
			cells = 1
		}
		side := int(math.Ceil(math.Sqrt(float64(cells))))
		cols, rows = side, side
	}

	words := (cols*rows + 63) / 64
	g := &Grid{
		bounds:  bounds,
		cols:    cols,
		rows:    rows,
		cellW:   bounds.Width() / float64(cols),
		cellH:   bounds.Height() / float64(rows),
		n:       st.Len(),
		rowBits: make([]uint64, words),
		colBits: make([]uint64, words),
	}

	// Counting sort: tally per cell, prefix-sum into span offsets, scatter.
	counts := make([]int, cols*rows)
	for i := 0; i < st.Len(); i++ {
		cell := g.cellIndex(st.Xs[i], st.Ys[i])
		if cell < 0 {
			return nil, fmt.Errorf("grid: point %v outside explicit bounds %v", st.At(i), bounds)
		}
		counts[cell]++
	}
	offsets := make([]int, cols*rows)
	off := 0
	for id, c := range counts {
		offsets[id] = off
		off += c
		if c > 0 {
			g.setOccupied(id)
		}
	}
	g.store = &geom.PointStore{
		Xs:  make([]float64, st.Len()),
		Ys:  make([]float64, st.Len()),
		IDs: make([]int32, st.Len()),
	}
	cursor := make([]int, cols*rows)
	copy(cursor, offsets)
	for i := 0; i < st.Len(); i++ {
		cell := g.cellIndex(st.Xs[i], st.Ys[i])
		j := cursor[cell]
		cursor[cell]++
		g.store.Xs[j] = st.Xs[i]
		g.store.Ys[j] = st.Ys[i]
		g.store.IDs[j] = st.IDs[i]
	}

	g.blocks = make([]*index.Block, cols*rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := r*cols + c
			cell := geom.Rect{
				MinX: bounds.MinX + float64(c)*g.cellW,
				MinY: bounds.MinY + float64(r)*g.cellH,
				MaxX: bounds.MinX + float64(c+1)*g.cellW,
				MaxY: bounds.MinY + float64(r+1)*g.cellH,
			}
			// Snap the outer edges exactly onto the grid bounds: the
			// floating-point products above can overshoot by an ulp, and
			// block regions must stay inside Bounds().
			if c == cols-1 {
				cell.MaxX = bounds.MaxX
			}
			if r == rows-1 {
				cell.MaxY = bounds.MaxY
			}
			g.blocks[id] = index.NewBlock(id, cell, g.store, offsets[id], counts[id])
		}
	}
	return g, nil
}

// setOccupied sets cell id's bit in both occupancy bitsets.
func (g *Grid) setOccupied(id int) {
	r, c := id/g.cols, id%g.cols
	g.rowBits[id>>6] |= 1 << (uint(id) & 63)
	i := c*g.rows + r
	g.colBits[i>>6] |= 1 << (uint(i) & 63)
}

// nextSet returns the smallest set bit of set in [i, hi], or -1 when there
// is none. A run of empty cells costs one word operation per 64 cells.
func nextSet(set []uint64, i, hi int) int {
	for i <= hi {
		if w := set[i>>6] >> (uint(i) & 63); w != 0 {
			if j := i + bits.TrailingZeros64(w); j <= hi {
				return j
			}
			return -1
		}
		i = (i | 63) + 1
	}
	return -1
}

// cellIndex returns the cell holding coordinate (x, y), or -1 when it lies
// outside the grid bounds. Points exactly on the max edge belong to the
// last cell, matching Locate.
func (g *Grid) cellIndex(x, y float64) int {
	// Negated-conjunction form so NaN coordinates fail the containment test
	// (a NaN compares false both ways and must not reach cell arithmetic).
	if !(x >= g.bounds.MinX && x <= g.bounds.MaxX && y >= g.bounds.MinY && y <= g.bounds.MaxY) {
		return -1
	}
	c := int((x - g.bounds.MinX) / g.cellW)
	r := int((y - g.bounds.MinY) / g.cellH)
	if c >= g.cols {
		c = g.cols - 1
	}
	if r >= g.rows {
		r = g.rows - 1
	}
	return r*g.cols + c
}

// inflate grows a bounding box by a hair so that points on the max edge map
// into the last cell rather than out of range, and degenerate (zero-area)
// boxes become usable regions.
func inflate(r geom.Rect) geom.Rect {
	const rel = 1e-9
	w, h := r.Width(), r.Height()
	padX := w*rel + 1e-9
	padY := h*rel + 1e-9
	if w == 0 {
		padX = 0.5
	}
	if h == 0 {
		padY = 0.5
	}
	return geom.Rect{MinX: r.MinX - padX, MinY: r.MinY - padY, MaxX: r.MaxX + padX, MaxY: r.MaxY + padY}
}

// Blocks implements index.Index.
func (g *Grid) Blocks() []*index.Block { return g.blocks }

// Len implements index.Index.
func (g *Grid) Len() int { return g.n }

// Bounds implements index.Index.
func (g *Grid) Bounds() geom.Rect { return g.bounds }

// Store implements index.Storer: the relation-wide store the grid permuted
// its input into, cell by cell.
func (g *Grid) Store() *geom.PointStore { return g.store }

// Dims returns the grid dimensions (columns, rows).
func (g *Grid) Dims() (cols, rows int) { return g.cols, g.rows }

// Locate implements index.Index with O(1) cell arithmetic.
func (g *Grid) Locate(p geom.Point) *index.Block {
	cell := g.cellIndex(p.X, p.Y)
	if cell < 0 {
		return nil
	}
	return g.blocks[cell]
}

// TilesSpace reports that grid cells tile the indexed region exactly. This
// enables the contour early-stop in Block-Marking preprocessing.
func (g *Grid) TilesSpace() bool { return true }

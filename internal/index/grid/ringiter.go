package grid

import (
	"math"

	"repro/internal/geom"
	"repro/internal/index"
)

// This file implements incremental MINDIST/MAXDIST block orderings for the
// grid (index.IncrementalScanner): cells are discovered in expanding
// Chebyshev rings around the query point's cell and ordered through a small
// heap. A query that stops after a handful of blocks — every algorithm in
// the paper does — touches O(popped) cells instead of all of them, which is
// what makes per-query cost proportional to the locality size.
//
// The iterators yield exactly the blocks that hold points, in (key, block
// ID) order. Each side of a ring is a contiguous bit run in one of the
// grid's occupancy bitsets (rows in the row-major set, columns in the
// column-major set), so expanding a ring is a masked word scan that visits
// only occupied cells: an empty cell is never pushed, popped or keyed, and
// an empty ring costs a few word operations. Consumers that need every cell
// of the tiling, empty ones included, scan Blocks() eagerly instead
// (index.NewMinDistScan).
//
// Correctness rests on one bound: every cell in Chebyshev ring r around the
// query point's (clamped) cell is at least (r-1) whole cells away from the
// query point along some axis, so both its MINDIST and its MAXDIST from the
// query point are at least (r-1)·min(cellW, cellH). Ring 1 has a sharper
// bound: its cells share an edge or corner with the query point's cell, so
// their keys are at least the distance from the query point to the nearest
// edge of its own cell — computed from the very same edge coordinates, so
// the bound holds exactly in floating point. A heap entry may therefore be
// popped as soon as its key is strictly below the bound for the first
// unexpanded ring; a key equal to the bound waits for the ring, whose cells
// may tie it with a smaller block ID. Skipping empty cells removes entries
// from the order without reordering the rest, so the occupied blocks come
// out in the same relative order as under a full enumeration.
//
// The heap is a concrete implementation (no container/heap) and the
// iterator supports Reset, so a pooled iterator performs steady-state
// queries without allocating.

// NewMinDistIter implements index.IncrementalScanner.
func (g *Grid) NewMinDistIter(p geom.Point) index.BlockIter {
	return g.newRingIter(p, geom.Rect.MinDistSq)
}

// NewMaxDistIter implements index.IncrementalScanner.
func (g *Grid) NewMaxDistIter(p geom.Point) index.BlockIter {
	return g.newRingIter(p, geom.Rect.MaxDistSq)
}

var (
	_ index.IncrementalScanner = (*Grid)(nil)
	_ index.ReusableIter       = (*ringIter)(nil)
)

type ringIter struct {
	g     *Grid
	p     geom.Point
	keyFn func(geom.Rect, geom.Point) float64

	cx, cy   int     // clamped cell of p
	nextRing int     // first ring not yet expanded
	maxRing  int     // last ring that intersects the grid
	minDim   float64 // min(cellW, cellH)
	edgeSq   float64 // squared distance from p to its cell's nearest edge; 0 outside

	h index.MinHeap[ringEntry]
}

type ringEntry struct {
	block *index.Block
	key   float64
}

// LessThan orders entries by (key, block ID); implements index.HeapOrdered.
func (e ringEntry) LessThan(o ringEntry) bool {
	if e.key != o.key {
		return e.key < o.key
	}
	return e.block.ID < o.block.ID
}

func (g *Grid) newRingIter(p geom.Point, keyFn func(geom.Rect, geom.Point) float64) *ringIter {
	it := &ringIter{g: g, keyFn: keyFn, minDim: math.Min(g.cellW, g.cellH)}
	it.Reset(p)
	return it
}

// Reset re-aims the iterator at a new query point, reusing the heap's
// backing array. Implements index.ReusableIter.
func (it *ringIter) Reset(p geom.Point) {
	g := it.g
	cx := int((p.X - g.bounds.MinX) / g.cellW)
	cy := int((p.Y - g.bounds.MinY) / g.cellH)
	it.cx = clampInt(cx, 0, g.cols-1)
	it.cy = clampInt(cy, 0, g.rows-1)
	it.p = p
	it.nextRing = 0
	// The farthest ring that still holds grid cells.
	it.maxRing = max(it.cx, g.cols-1-it.cx, it.cy, g.rows-1-it.cy)
	it.h = it.h[:0]
	// A negative distance (p outside its clamped cell) or a NaN one leaves
	// the ring-1 bound at 0.
	own := g.blocks[it.cy*g.cols+it.cx].Bounds
	it.edgeSq = 0
	if d := min(p.X-own.MinX, own.MaxX-p.X, p.Y-own.MinY, own.MaxY-p.Y); d > 0 {
		it.edgeSq = d * d
	}
}

// ringBoundSq is the (squared) lower bound on the metric key of any cell in
// ring r or beyond.
func (it *ringIter) ringBoundSq(r int) float64 {
	switch r {
	case 0:
		return 0
	case 1:
		return it.edgeSq
	}
	d := float64(r-1) * it.minDim
	return d * d
}

// expandRing pushes the occupied grid cells of Chebyshev ring r onto the
// heap: the top and bottom rows through the row-major occupancy bitset, the
// left and right columns (corners excluded) through the column-major one.
func (it *ringIter) expandRing(r int) {
	g := it.g
	c0, c1 := max(it.cx-r, 0), min(it.cx+r, g.cols-1)
	if row := it.cy - r; row >= 0 {
		it.pushRow(row, c0, c1)
	}
	if row := it.cy + r; r > 0 && row < g.rows {
		it.pushRow(row, c0, c1)
	}
	if r == 0 {
		return
	}
	r0, r1 := max(it.cy-r+1, 0), min(it.cy+r-1, g.rows-1)
	if col := it.cx - r; col >= 0 {
		it.pushCol(col, r0, r1)
	}
	if col := it.cx + r; col < g.cols {
		it.pushCol(col, r0, r1)
	}
}

// pushRow pushes the occupied cells (c0..c1, row).
func (it *ringIter) pushRow(row, c0, c1 int) {
	g := it.g
	base := row * g.cols
	for i := nextSet(g.rowBits, base+c0, base+c1); i >= 0; i = nextSet(g.rowBits, i+1, base+c1) {
		it.push(g.blocks[i])
	}
}

// pushCol pushes the occupied cells (col, r0..r1).
func (it *ringIter) pushCol(col, r0, r1 int) {
	g := it.g
	base := col * g.rows
	for i := nextSet(g.colBits, base+r0, base+r1); i >= 0; i = nextSet(g.colBits, i+1, base+r1) {
		it.push(g.blocks[(i-base)*g.cols+col])
	}
}

func (it *ringIter) push(b *index.Block) {
	it.h.Push(ringEntry{block: b, key: it.keyFn(b.Bounds, it.p)})
}

// Next implements index.BlockIter.
func (it *ringIter) Next() (*index.Block, float64, bool) {
	for {
		// Pop when the best candidate provably precedes every undiscovered
		// cell; otherwise expand the next ring.
		if len(it.h) > 0 && (it.nextRing > it.maxRing || it.h[0].key < it.ringBoundSq(it.nextRing)) {
			e := it.h.Pop()
			return e.block, e.key, true
		}
		if it.nextRing > it.maxRing {
			return nil, 0, false
		}
		it.expandRing(it.nextRing)
		it.nextRing++
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

package index

import "repro/internal/geom"

// BlockIter enumerates blocks in increasing order of a distance metric from
// a query point. Next returns the block, its squared metric key, and false
// when the enumeration is exhausted.
//
// Two implementations exist: the eager *Scan (heap over all blocks, O(B)
// setup) and index-provided incremental iterators that only touch blocks
// near the query point. Algorithms obtain iterators through MinDistOrder /
// MaxDistOrder, which pick the best available implementation — this is what
// makes the paper's per-query costs proportional to the locality size
// instead of the total block count.
type BlockIter interface {
	Next() (b *Block, keySq float64, ok bool)
}

// ReusableIter is a BlockIter that can be re-aimed at a new query point,
// reusing its internal heap and scratch storage. Every iterator in this
// repository implements it; per-query users go through an IterPool so that
// steady-state block enumeration allocates nothing.
type ReusableIter interface {
	BlockIter
	Reset(p geom.Point)
}

// IncrementalScanner is an optional interface an Index implements to
// provide lazy MINDIST/MAXDIST orderings. Grid indexes enumerate cells in
// expanding rings around the query point, touching O(popped) cells instead
// of all of them.
//
// An incremental iterator yields every block that holds points, in (key,
// block ID) order, and may omit blocks that hold none: the grid skips its
// empty cells. Consumers that must see every region of a space-tiling
// partition, empty ones included (Block-Marking's contour scan), order
// Blocks() eagerly with NewMinDistScan instead.
type IncrementalScanner interface {
	NewMinDistIter(p geom.Point) BlockIter
	NewMaxDistIter(p geom.Point) BlockIter
}

// MinDistOrder returns an iterator over ix's blocks in increasing MINDIST
// order from p, incremental when the index supports it (and then possibly
// without empty blocks; see IncrementalScanner).
func MinDistOrder(ix Index, p geom.Point) BlockIter {
	if inc, ok := ix.(IncrementalScanner); ok {
		return inc.NewMinDistIter(p)
	}
	return NewMinDistScan(ix.Blocks(), p)
}

// MaxDistOrder returns an iterator over ix's blocks in increasing MAXDIST
// order from p, incremental when the index supports it.
func MaxDistOrder(ix Index, p geom.Point) BlockIter {
	if inc, ok := ix.(IncrementalScanner); ok {
		return inc.NewMaxDistIter(p)
	}
	return NewMaxDistScan(ix.Blocks(), p)
}

// IterPool caches one MINDIST and one MAXDIST iterator over a single index
// so repeated queries reuse the iterators' heaps and scratch slices instead
// of reallocating them. The first MinDist/MaxDist call allocates the
// iterator; every later call only Resets it.
//
// The returned iterator is valid until the next MinDist (respectively
// MaxDist) call on the same pool — callers must fully consume or abandon it
// before asking for the next one. An IterPool is not safe for concurrent
// use; locality.Searcher embeds one per clone.
type IterPool struct {
	ix       Index
	min, max ReusableIter
}

// NewIterPool returns a pool over ix.
func NewIterPool(ix Index) *IterPool { return &IterPool{ix: ix} }

// MinDist returns a MINDIST iterator positioned at p, reusing the pooled
// iterator when one exists.
func (pl *IterPool) MinDist(p geom.Point) BlockIter {
	if pl.min != nil {
		pl.min.Reset(p)
		return pl.min
	}
	it := MinDistOrder(pl.ix, p)
	if r, ok := it.(ReusableIter); ok {
		pl.min = r
	}
	return it
}

// MaxDist returns a MAXDIST iterator positioned at p, reusing the pooled
// iterator when one exists.
func (pl *IterPool) MaxDist(p geom.Point) BlockIter {
	if pl.max != nil {
		pl.max.Reset(p)
		return pl.max
	}
	it := MaxDistOrder(pl.ix, p)
	if r, ok := it.(ReusableIter); ok {
		pl.max = r
	}
	return it
}

// Statically assert that both iterator families are reusable.
var (
	_ ReusableIter = (*Scan)(nil)
	_ ReusableIter = (*treeIter)(nil)
)

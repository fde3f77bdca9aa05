// Package stats provides lightweight operation counters threaded through the
// query algorithms. Wall-clock time depends on the machine; these counters
// expose the quantities the paper's analysis reasons about directly — how
// many neighborhoods were computed, how many blocks were scanned or pruned —
// so experiments can report machine-independent evidence next to timings.
package stats

import (
	"fmt"
	"sync/atomic"
)

// Counters accumulates per-query operation counts. A nil *Counters is valid
// everywhere and records nothing, so instrumentation is free on hot paths
// that do not request it.
//
// All mutation goes through the Add* methods, which are atomic: one Counters
// value may be shared by any number of goroutines — parallel workers of one
// query, or many concurrent queries accumulating into a server-wide total —
// without locking. Reading the fields directly is safe once the recording
// queries have finished (or via Snapshot for a consistent mid-flight copy).
//
// The fields stay plain exported int64s (rather than atomic.Int64) so that
// direct reads and JSON marshaling keep working; the cost is the usual
// sync/atomic alignment rule on 32-bit platforms: a Counters must be
// 64-bit aligned there. Heap-allocated values (&Counters{}, new) always
// are; when embedding a Counters by value in another struct on a 32-bit
// target, place it first or after 8-byte-aligned fields.
type Counters struct {
	// Neighborhoods is the number of k-nearest-neighbor computations
	// performed (the dominant cost in every algorithm of the paper).
	Neighborhoods int64

	// BlocksScanned is the number of blocks popped from MINDIST/MAXDIST
	// scans across all phases. The grid's incremental iterators yield only
	// non-empty cells, so empty grid cells are not counted, except by the
	// Block-Marking contour scan, which checks every cell of the tiling.
	BlocksScanned int64

	// PointsCompared is the number of candidate points examined during
	// neighborhood computations.
	PointsCompared int64

	// BlocksPruned is the number of blocks excluded from further work by a
	// pruning rule (Non-Contributing marks, contour stops, count cut-offs).
	BlocksPruned int64

	// OuterSkipped is the number of outer-relation points skipped without a
	// neighborhood computation (the Counting algorithm's per-tuple prune).
	OuterSkipped int64

	// CacheHits / CacheMisses count probes of every result-memoization
	// layer: the chained-join neighborhood cache (Section 4.2 of the paper)
	// and the serving layer's epoch-keyed query result cache
	// (internal/qcache). A hit means the probed answer was reused without
	// recomputation; a miss means the probe fell through to evaluation.
	CacheHits   int64
	CacheMisses int64
}

// AddNeighborhood records one kNN computation that examined n candidate
// points.
func (c *Counters) AddNeighborhood(n int) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.Neighborhoods, 1)
	atomic.AddInt64(&c.PointsCompared, int64(n))
}

// AddBlocksScanned records n popped blocks.
func (c *Counters) AddBlocksScanned(n int) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.BlocksScanned, int64(n))
}

// AddBlocksPruned records n pruned blocks.
func (c *Counters) AddBlocksPruned(n int) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.BlocksPruned, int64(n))
}

// AddOuterSkipped records n skipped outer points.
func (c *Counters) AddOuterSkipped(n int) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.OuterSkipped, int64(n))
}

// AddCacheHit records one cache hit.
func (c *Counters) AddCacheHit() {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.CacheHits, 1)
}

// AddCacheMiss records one cache miss.
func (c *Counters) AddCacheMiss() {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.CacheMisses, 1)
}

// Add accumulates other into c. Both receivers may be nil. Add is atomic on
// both sides, so per-worker shards can merge into a shared total while other
// workers are still recording.
func (c *Counters) Add(other *Counters) {
	if c == nil || other == nil {
		return
	}
	atomic.AddInt64(&c.Neighborhoods, atomic.LoadInt64(&other.Neighborhoods))
	atomic.AddInt64(&c.BlocksScanned, atomic.LoadInt64(&other.BlocksScanned))
	atomic.AddInt64(&c.PointsCompared, atomic.LoadInt64(&other.PointsCompared))
	atomic.AddInt64(&c.BlocksPruned, atomic.LoadInt64(&other.BlocksPruned))
	atomic.AddInt64(&c.OuterSkipped, atomic.LoadInt64(&other.OuterSkipped))
	atomic.AddInt64(&c.CacheHits, atomic.LoadInt64(&other.CacheHits))
	atomic.AddInt64(&c.CacheMisses, atomic.LoadInt64(&other.CacheMisses))
}

// Snapshot returns a plain copy of the counters read atomically field by
// field, for reporting while recording goroutines may still be running.
func (c *Counters) Snapshot() Counters {
	if c == nil {
		return Counters{}
	}
	return Counters{
		Neighborhoods:  atomic.LoadInt64(&c.Neighborhoods),
		BlocksScanned:  atomic.LoadInt64(&c.BlocksScanned),
		PointsCompared: atomic.LoadInt64(&c.PointsCompared),
		BlocksPruned:   atomic.LoadInt64(&c.BlocksPruned),
		OuterSkipped:   atomic.LoadInt64(&c.OuterSkipped),
		CacheHits:      atomic.LoadInt64(&c.CacheHits),
		CacheMisses:    atomic.LoadInt64(&c.CacheMisses),
	}
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	if c == nil {
		return
	}
	atomic.StoreInt64(&c.Neighborhoods, 0)
	atomic.StoreInt64(&c.BlocksScanned, 0)
	atomic.StoreInt64(&c.PointsCompared, 0)
	atomic.StoreInt64(&c.BlocksPruned, 0)
	atomic.StoreInt64(&c.OuterSkipped, 0)
	atomic.StoreInt64(&c.CacheHits, 0)
	atomic.StoreInt64(&c.CacheMisses, 0)
}

// String implements fmt.Stringer with a compact one-line summary.
func (c *Counters) String() string {
	if c == nil {
		return "stats: <nil>"
	}
	s := c.Snapshot()
	return fmt.Sprintf("nbr=%d blocksScanned=%d ptsCompared=%d blocksPruned=%d outerSkipped=%d cache=%d/%d",
		s.Neighborhoods, s.BlocksScanned, s.PointsCompared, s.BlocksPruned,
		s.OuterSkipped, s.CacheHits, s.CacheHits+s.CacheMisses)
}

package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/stats"
)

// This file implements the execution driver every join algorithm of the
// package runs on. The outer relation's tuples are split into groups (index
// blocks, or chunks of a selected point list). With one worker the groups
// are emitted in order on the caller's goroutine. With more, a fixed crew
// of workers claims groups through an atomic cursor, each worker holding a
// pooled searcher handle on the inner relation. Workers append their
// results into a private *arena* drawn from a process-wide pool and record
// one (start, end) span per group, so the driver performs no per-group
// result allocation at all; the per-group spans are concatenated once, in
// group order, which makes the result byte-identical at every worker
// count — including order.
//
// Extra worker handles come from the inner relation's SearcherPool via
// TryAcquire: on a bounded pool that is already at capacity the crew
// degrades gracefully to fewer workers (worker 0 always runs on the
// caller's own handle), rather than blocking or deadlocking.

// maxArenaRetain caps the capacity (in elements) of arenas returned to the
// shared pool; oversized arenas from a huge join are left to the GC instead
// of pinning their memory for the process lifetime.
const maxArenaRetain = 1 << 18

// arena is a worker-private append buffer recycled across parallel queries.
type arena[T any] struct{ buf []T }

// arenaPool recycles arenas of one element type.
type arenaPool[T any] struct{ p sync.Pool }

func (ap *arenaPool[T]) get() *arena[T] {
	if a, ok := ap.p.Get().(*arena[T]); ok {
		return a
	}
	return new(arena[T])
}

func (ap *arenaPool[T]) put(a *arena[T]) {
	if a == nil || cap(a.buf) > maxArenaRetain {
		return
	}
	a.buf = a.buf[:0]
	ap.p.Put(a)
}

var (
	pairArenas   arenaPool[Pair]
	tripleArenas arenaPool[Triple]
)

// span records where one group's results landed: in which worker's arena
// and at which offsets.
type span struct{ worker, start, end int }

// concatSpans assembles the final result slice from per-worker arenas in
// group order — the single allocation of the output path.
func concatSpans[T any](spans []span, arenas []*arena[T]) []T {
	total := 0
	for _, sp := range spans {
		total += sp.end - sp.start
	}
	if total == 0 {
		return nil // matches the sequential variants' nil empty result
	}
	out := make([]T, 0, total)
	for _, sp := range spans {
		out = append(out, arenas[sp.worker].buf[sp.start:sp.end]...)
	}
	return out
}

// worker is one crew member's behavior in a parallelRun: emit produces the
// results of one outer tuple, gate (optional) admits or skips a whole
// group before its points are emitted, and done (optional) releases any
// extra resources the worker factory acquired.
type worker[T any] struct {
	emit func(e1 geom.Point, dst []T) []T
	gate func(gi int) bool
	done func()
}

// tupleGroups lists the units of outer-tuple work for the driver: either
// the spans of index blocks (scanned over the store's flat X/Y columns, no
// point materialization up front), or contiguous chunks of an explicit
// point list (a selected point set). The groups are described, not
// materialized, so listing them allocates nothing.
type tupleGroups struct {
	blocks []*index.Block // one group per block, when chunk == 0
	pts    []geom.Point   // otherwise: pts cut into chunks of chunk points
	chunk  int
}

// count returns the number of groups.
func (g tupleGroups) count() int {
	if g.chunk == 0 {
		return len(g.blocks)
	}
	return (len(g.pts) + g.chunk - 1) / g.chunk
}

// emitGroup runs wk.emit over every tuple of group gi, appending to buf.
func emitGroup[T any](g tupleGroups, gi int, wk worker[T], buf []T) []T {
	if g.chunk == 0 {
		xs, ys := g.blocks[gi].XYs()
		for i := range xs {
			buf = wk.emit(geom.Point{X: xs[i], Y: ys[i]}, buf)
		}
		return buf
	}
	for _, e1 := range g.pts[gi*g.chunk : min((gi+1)*g.chunk, len(g.pts))] {
		buf = wk.emit(e1, buf)
	}
	return buf
}

// parallelRun fans groups out across a worker crew and returns the
// concatenated per-group results in group order. newWorker builds each
// crew member's behavior: it receives a searcher handle on inner (worker 0
// — primary — runs on the caller's own handle, the rest borrow from
// inner's pool) and a counter shard, and may acquire extra per-worker
// state (more handles, caches) released via worker.done. Returning ok ==
// false stands the worker down — the remaining crew drains the groups; the
// primary worker must always succeed.
//
// workers <= 1 (after capping at the group count) is the sequential
// evaluation: one loop on the caller's goroutine with no arena
// machinery, its output presized to sizeHint elements (0: grow on demand).
// A nil result means no rows.
func parallelRun[T any](ap *arenaPool[T], groups tupleGroups, inner *Relation, workers, sizeHint int,
	c *stats.Counters,
	newWorker func(h *Relation, primary bool, ctr *stats.Counters) (worker[T], bool)) []T {

	n := groups.count()
	workers = min(workers, n) // no more workers than groups
	if workers <= 1 {
		wk, _ := newWorker(inner, true, c)
		if wk.done != nil {
			defer wk.done()
		}
		var out []T
		if sizeHint > 0 {
			out = make([]T, 0, sizeHint)
		}
		for gi := 0; gi < n; gi++ {
			inner.Checkpoint()
			if wk.gate != nil && !wk.gate(gi) {
				continue
			}
			out = emitGroup(groups, gi, wk, out)
		}
		return out
	}

	spans := make([]span, n)
	arenas := make([]*arena[T], workers)
	// Counter shards are individually allocated (not one contiguous slice)
	// so adjacent workers' atomic increments do not false-share cache
	// lines; when the caller asked for no stats, workers get nil shards
	// and the nil-receiver no-op keeps the hot loop increment-free.
	var counters []*stats.Counters
	if c != nil {
		counters = make([]*stats.Counters, workers)
		for w := range counters {
			counters[w] = new(stats.Counters)
		}
	}
	var cursor atomic.Int64

	// Panic isolation: a worker never lets a panic — cooperative
	// cancellation (fault.Cancel) or a genuine crash — cross its goroutine
	// boundary. The first fault is parked in the slot, the abort flag stops
	// the rest of the crew at their next group claim, and after the crew is
	// joined (counters folded, handles released by the workers' own defers)
	// the fault re-panics on the caller's goroutine for the public recover.
	var flt fault.Slot
	var abort atomic.Bool

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					flt.Store(fault.WrapPanic(r))
					abort.Store(true)
				}
			}()
			h := inner
			if w > 0 {
				hh, err := inner.TryAcquire()
				if err != nil {
					// Bounded pool at capacity: drop this worker; the
					// remaining crew (at least worker 0) drains the groups.
					return
				}
				defer hh.Release()
				// Extra handles inherit the caller handle's cancellation
				// binding, so every crew member checkpoints the same ctx.
				hh.S.Bind(inner.S.Context())
				h = hh
			}
			var ctr *stats.Counters
			if counters != nil {
				ctr = counters[w]
			}
			wk, ok := newWorker(h, w == 0, ctr)
			if !ok {
				return
			}
			if wk.done != nil {
				defer wk.done()
			}
			a := ap.get()
			arenas[w] = a
			for {
				if abort.Load() {
					return
				}
				gi := int(cursor.Add(1)) - 1
				if gi >= n {
					return
				}
				h.Checkpoint()
				if wk.gate != nil && !wk.gate(gi) {
					continue
				}
				start := len(a.buf)
				a.buf = emitGroup(groups, gi, wk, a.buf)
				spans[gi] = span{worker: w, start: start, end: len(a.buf)}
			}
		}(w)
	}
	wg.Wait()

	for _, shard := range counters {
		c.Add(shard)
	}
	if r := flt.Load(); r != nil {
		// Faulted: arenas go back to the pool, no partial result escapes,
		// and the fault resumes its unwind on the caller's goroutine.
		for _, a := range arenas {
			ap.put(a)
		}
		panic(r)
	}
	out := concatSpans(spans, arenas)
	for _, a := range arenas {
		ap.put(a)
	}
	return out
}

// parallelEmit is parallelRun for the common case of stateless workers: a
// per-point emit (and optional per-group gate) parameterized only by the
// worker's handle and counter shard.
func parallelEmit[T any](ap *arenaPool[T], groups tupleGroups, inner *Relation, workers, sizeHint int,
	c *stats.Counters,
	gate func(h *Relation, gi int, ctr *stats.Counters) bool,
	emit func(h *Relation, e1 geom.Point, dst []T, ctr *stats.Counters) []T) []T {

	return parallelRun(ap, groups, inner, workers, sizeHint, c,
		func(h *Relation, _ bool, ctr *stats.Counters) (worker[T], bool) {
			wk := worker[T]{emit: func(e1 geom.Point, dst []T) []T { return emit(h, e1, dst, ctr) }}
			if gate != nil {
				wk.gate = func(gi int) bool { return gate(h, gi, ctr) }
			}
			return wk, true
		})
}

// pointChunks splits a point list into contiguous chunks: one chunk for a
// sequential run, otherwise chunks sized for dynamic load balancing across
// workers (several chunks per worker so a slow chunk does not straggle the
// crew).
func pointChunks(pts []geom.Point, workers int) tupleGroups {
	if len(pts) == 0 {
		return tupleGroups{}
	}
	chunk := len(pts)
	if workers > 1 {
		chunk = max(1, (len(pts)+workers*4-1)/(workers*4))
	}
	return tupleGroups{pts: pts, chunk: chunk}
}

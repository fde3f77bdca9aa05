package shard

import (
	"context"

	"repro/internal/batch"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/locality"
	"repro/internal/stats"
)

// Spans stores one neighborhood per focal in a flat arena: the points and
// distances share backing arrays, and span i ends where span i+1 starts.
// The zero value is an empty arena; a probe keeps one per member (plus one
// for merged results) and reuses it across calls, so steady-state batches
// allocate nothing.
type Spans struct {
	pts   []geom.Point
	dists []float64
	end   []int // end[i] is the exclusive end of span i
}

// Len returns the number of spans.
func (b *Spans) Len() int { return len(b.end) }

// Append adds one candidate to the span under construction.
func (b *Spans) Append(p geom.Point, dist float64) {
	b.pts = append(b.pts, p)
	b.dists = append(b.dists, dist)
}

// EndSpan closes the span under construction (an empty span when nothing
// was appended since the last close).
func (b *Spans) EndSpan() { b.end = append(b.end, len(b.pts)) }

// Span returns span i's points and distances (aliases; valid until the
// arena is next appended to or reset).
func (b *Spans) Span(i int) ([]geom.Point, []float64) {
	lo := 0
	if i > 0 {
		lo = b.end[i-1]
	}
	return b.pts[lo:b.end[i]], b.dists[lo:b.end[i]]
}

// view aliases span i as a Neighborhood centered at center.
func (b *Spans) view(i int, center geom.Point, nb *locality.Neighborhood) {
	nb.Center = center
	nb.Points, nb.Dists = b.Span(i)
}

// appendNbr copies one neighborhood into the arena as the next span.
func (b *Spans) appendNbr(nb *locality.Neighborhood) {
	b.pts = append(b.pts, nb.Points...)
	b.dists = append(b.dists, nb.Dists...)
	b.EndSpan()
}

// reset empties the arena, keeping its buffers.
func (b *Spans) reset() {
	b.pts, b.dists, b.end = b.pts[:0], b.dists[:0], b.end[:0]
}

// clone returns an independent copy of the spans.
func (b *Spans) clone() *Spans {
	return &Spans{
		pts:   append([]geom.Point(nil), b.pts...),
		dists: append([]float64(nil), b.dists...),
		end:   append([]int(nil), b.end...),
	}
}

// neighborhoods computes the exact global k-neighborhood of every focal,
// one span per focal in input order in the probe's merged arena (valid
// until the probe's next neighborhoods call). thresholdsSq nil selects kNN
// mode; non-nil clips focal i's scan at thresholdsSq[i] as
// neighborhoodWithinSq does, and a negative threshold yields an empty span.
//
// The probes go out in rounds: round r sends each focal to its r-th nearest
// shard by MINDIST², unless the focal's running k-th distance already
// excludes that shard — the skip rule of neighborhood, applied focal by
// focal, so every shard sees exactly the (focal, shard) probes of the
// per-focal loop. Each round makes at most one NeighborhoodBatch call per
// shard: in-process members run the Z-order batch driver over the round's
// focals, remote members make one round trip per bounded chunk. The merge
// per focal is the probe's k-way merge, so the spans are byte-identical to
// calling neighborhood (or neighborhoodWithinSq) once per focal.
func (pr *probe) neighborhoods(focals []geom.Point, k int, thresholdsSq []float64) *Spans {
	n, S := len(focals), len(pr.handles)
	if pr.spans == nil {
		pr.spans = make([]Spans, S)
		pr.views = make([]locality.Neighborhood, S)
		pr.drvs = make([]*batch.Driver, S)
		for s := range pr.drvs {
			pr.drvs[s] = batch.Acquire()
		}
	}
	pr.shardOrder = grow(pr.shardOrder, n*S)
	pr.shardMinSq = grow(pr.shardMinSq, n*S)
	pr.spanAt = grow(pr.spanAt, n*S)
	pr.limits = grow(pr.limits, n)
	for i, f := range focals {
		limit := pr.probeOrder(f)
		if thresholdsSq != nil {
			limit = thresholdsSq[i]
		}
		pr.limits[i] = limit
		copy(pr.shardOrder[i*S:], pr.order)
		copy(pr.shardMinSq[i*S:], pr.minSqs)
	}
	for j := range pr.spanAt {
		pr.spanAt[j] = -1
	}
	for s := range pr.spans {
		pr.spans[s].reset()
	}

	for r := 0; r < S; r++ {
		for s, h := range pr.handles {
			sub, subIdx, subThr := pr.sub[:0], pr.subIdx[:0], pr.subThr[:0]
			for i, f := range focals {
				if pr.shardOrder[i*S+r] != s || pr.shardMinSq[i*S+s] > pr.limits[i] {
					continue
				}
				sub = append(sub, f)
				subIdx = append(subIdx, i)
				if thresholdsSq != nil {
					subThr = append(subThr, thresholdsSq[i])
				}
			}
			pr.sub, pr.subIdx, pr.subThr = sub, subIdx, subThr
			if len(sub) == 0 {
				continue
			}
			if thresholdsSq == nil {
				subThr = nil
			}
			if fault.Armed() {
				fault.OnShardProbe(s)
			}
			base := pr.spans[s].Len()
			h.NeighborhoodBatch(pr.drvs[s], sub, k, subThr, &pr.spans[s], pr.deltas[s])
			for j, i := range subIdx {
				pr.spanAt[i*S+s] = base + j
			}
		}
		// Tighten each focal's skip limit by the shard it just heard from.
		for i, f := range focals {
			s := pr.shardOrder[i*S+r]
			j := pr.spanAt[i*S+s]
			if j < 0 {
				continue
			}
			if pts, _ := pr.spans[s].Span(j); len(pts) == k {
				if b := pts[k-1].DistSq(f); b < pr.limits[i] {
					pr.limits[i] = b
				}
			}
		}
	}

	out := &pr.out
	out.reset()
	for i, f := range focals {
		for s := range pr.handles {
			if j := pr.spanAt[i*S+s]; j >= 0 {
				pr.spans[s].view(j, f, &pr.views[s])
				pr.nbrs[s] = &pr.views[s]
			} else {
				pr.nbrs[s] = &pr.emptyNbr
			}
		}
		out.appendNbr(pr.merge(f, k))
	}
	return out
}

// grow returns buf resized to n, reallocating only when it is too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// SelectBatch is the batched form of Select: the k nearest neighbors of
// every focal across all shards of the group, one result slice per focal in
// input order, byte-identical to calling Select once per focal. The
// returned slices share one backing array.
func SelectBatch(ctx context.Context, g Group, focals []geom.Point, k int, c *stats.Counters) [][]geom.Point {
	out := make([][]geom.Point, len(focals))
	if k <= 0 || len(focals) == 0 {
		return out
	}
	pr := acquire(ctx, g)
	defer pr.release(c)
	pr.checkpoint()
	res := pr.neighborhoods(focals, k, nil)
	pts := make([]geom.Point, len(res.pts))
	copy(pts, res.pts)
	lo := 0
	for i, hi := range res.end {
		out[i] = pts[lo:hi:hi]
		lo = hi
	}
	return out
}

// TwoSelectsBatch is the batched form of TwoSelects: for every i it
// evaluates σ_{k1,f1s[i]} ∩ σ_{k2,f2s[i]}, byte-identical to calling
// TwoSelects once per pair. conceptual selects the Figure 16 baseline (both
// neighborhoods in full); the default runs the smaller-k predicate first
// and clips the larger predicate's scan by the derived search threshold,
// batched on both sides.
func TwoSelectsBatch(ctx context.Context, g Group, f1s []geom.Point, k1 int, f2s []geom.Point, k2 int, conceptual bool, c *stats.Counters) [][]geom.Point {
	out := make([][]geom.Point, len(f1s))
	if k1 <= 0 || k2 <= 0 || len(f1s) == 0 {
		return out
	}
	pr := acquire(ctx, g)
	defer pr.release(c)
	pr.checkpoint()

	if !conceptual && k1 > k2 {
		f1s, f2s = f2s, f1s
		k1, k2 = k2, k1
	}
	// The first answers survive the second gather, which reuses the
	// probe's merged arena.
	res1 := pr.neighborhoods(f1s, k1, nil).clone()

	var res2 *Spans
	if conceptual {
		res2 = pr.neighborhoods(f2s, k2, nil)
	} else {
		// The second predicate's scan is clipped per query by the squared
		// distance from its focal to the farthest first-predicate answer; an
		// empty first answer short-circuits the query (negative threshold).
		thresholds := make([]float64, len(f1s))
		var nb1 locality.Neighborhood
		for i := range f1s {
			res1.view(i, f1s[i], &nb1)
			if nb1.Len() == 0 {
				thresholds[i] = -1
				continue
			}
			thresholds[i] = nb1.FarthestDistSqTo(f2s[i])
		}
		res2 = pr.neighborhoods(f2s, k2, thresholds)
	}

	var nb1, nb2 locality.Neighborhood
	for i := range f1s {
		res1.view(i, f1s[i], &nb1)
		if !conceptual && nb1.Len() == 0 {
			continue
		}
		res2.view(i, f2s[i], &nb2)
		out[i] = nb1.Intersect(&nb2)
	}
	return out
}

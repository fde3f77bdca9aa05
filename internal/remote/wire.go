// Package remote lifts the scatter/gather layer onto multi-process layouts:
// it implements the shard.Member / shard.Prober transport seam over an
// HTTP/JSON shard-probe protocol, with a robustness envelope — per-probe
// deadlines, bounded retries with jittered exponential backoff, hedged
// second requests, per-endpoint circuit breakers, and replica failover —
// between the coordinator and each shard process.
//
// # Exactness over the wire
//
// The protocol ships candidate sets, not answers: each probe returns the
// shard-local top-k as stable point IDs, coordinates, and squared distances.
// Go's encoding/json formats float64 with strconv's shortest round-trip
// representation, so coordinates and squared distances cross the wire
// bit-exactly; the client rebuilds Dists as math.Sqrt(dSq) — precisely the
// computation the in-process searcher performs (locality's extractInto) —
// and the coordinator's k-way merge recomputes squared distances from
// coordinates exactly as it does for in-process shards. Remote results are
// therefore byte-identical to in-process execution, which the differential
// oracle at the module root enforces across layouts and under injected
// faults.
//
// # Protocol
//
// A shard process (cmd/knnshard) serves one shard's candidate-generation
// contract:
//
//	POST /shard/v1/neighborhood         {x,y,k}                 → probe response
//	POST /shard/v1/neighborhood-within  {x,y,k,threshold_sq}    → probe response
//	POST /shard/v1/neighborhood-batch   {xs,ys,k,thresholds_sq} → batch response
//	POST /shard/v1/count-closer         {x,y,k,threshold_sq}    → {count}
//	GET  /shard/v1/info                 shard identity, cardinality, bounds
//	GET  /shard/v1/blocks               outer-side block headers (MBR, count)
//	GET  /shard/v1/block?i=N            one block's points (lazy outer fetch)
//	GET  /healthz                       liveness
//	GET  /metrics                       per-op counters + searcher stats
//
// The batch route answers up to batchFocalLimit(k, n) probes in one round
// trip (n is the shard's cardinality):
// focal i is (xs[i], ys[i]), k is shared, and thresholds_sq, when present,
// selects the threshold-clipped probe per focal. Its response carries the
// candidates of every focal in flat ids/xs/ys/d_sqs arrays plus offsets:
// focal i's candidates are off[i]:off[i+1], so off has one entry more than
// there are focals, starts at 0, never decreases and ends at len(ids). The
// stats are the sum over all focals. The coordinator rejects any response
// breaking that contract as a transient transfer fault.
//
// Every probe route reads at most maxRequestBytes of body and rejects with
// 400 a non-positive k or a NaN threshold; the batch route also rejects
// ragged xs/ys, a thresholds_sq of the wrong length and more focals than
// batchFocalLimit(k, n) — at most maxBatchFocals, and few enough that the
// response holds at most maxBatchCandidates candidates. The coordinator
// splits a unit's probes into chunks of that size.
//
// Block headers let the coordinator run Block-Marking as a network-transfer
// prune: a marked non-contributing block's points are never fetched.
package remote

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/locality"
	"repro/internal/shard"
)

// Protocol version prefix of every route. Bump on incompatible changes; the
// coordinator rejects shards whose /shard/v1/info is absent or malformed.
const pathPrefix = "/shard/v1"

// Op names one probe operation of the candidate-generation contract.
type Op int

const (
	// OpNeighborhood is the shard-local top-k probe.
	OpNeighborhood Op = iota

	// OpWithin is the threshold-clipped top-k probe.
	OpWithin

	// OpCount is the conservative strictly-closer count.
	OpCount

	// OpBatch is the batched top-k probe (its own request and response
	// types; see BatchProbeRequest).
	OpBatch
)

// String returns the op's route suffix.
func (o Op) String() string {
	switch o {
	case OpWithin:
		return "neighborhood-within"
	case OpCount:
		return "count-closer"
	case OpBatch:
		return "neighborhood-batch"
	default:
		return "neighborhood"
	}
}

// maxBatchFocals caps the focals of one batch request.
const maxBatchFocals = 512

// maxBatchCandidates caps the candidates of one batch response (about 2 MB
// of JSON), which bounds the shard's and the coordinator's memory per
// round trip whatever k a query asks for.
const maxBatchCandidates = 1 << 15

// batchFocalLimit returns the most focals one batch request may carry for
// top-k probes over a shard of n points: maxBatchFocals, lowered so that
// the response holds at most maxBatchCandidates candidates, and never
// below one — a lone focal is exactly a single probe's worth.
func batchFocalLimit(k, n int) int {
	perFocal := max(1, min(k, n))
	return max(1, min(maxBatchFocals, maxBatchCandidates/perFocal))
}

// maxRequestBytes caps the body of every probe request. A full batch
// request is about 40 KB of JSON (60 KB with thresholds).
const maxRequestBytes = 1 << 20

// ProbeRequest is the body of every probe POST. ThresholdSq is ignored by
// OpNeighborhood.
type ProbeRequest struct {
	X           float64 `json:"x"`
	Y           float64 `json:"y"`
	K           int     `json:"k"`
	ThresholdSq float64 `json:"threshold_sq,omitempty"`
}

// WireStats is the per-probe operation-counter delta the shard recorded
// while serving the request, folded into the coordinator's per-shard
// counters so WithStats accounts identically across layouts.
type WireStats struct {
	Neighborhoods  int64 `json:"neighborhoods,omitempty"`
	BlocksScanned  int64 `json:"blocks_scanned,omitempty"`
	PointsCompared int64 `json:"points_compared,omitempty"`
	BlocksPruned   int64 `json:"blocks_pruned,omitempty"`
	OuterSkipped   int64 `json:"outer_skipped,omitempty"`
}

// Candidates are a candidate set on the wire: parallel arrays of stable
// point IDs, coordinates, and squared distances in the shard-local result
// order (ascending (distance, X, Y)).
type Candidates struct {
	IDs  []int32   `json:"ids,omitempty"`
	Xs   []float64 `json:"xs,omitempty"`
	Ys   []float64 `json:"ys,omitempty"`
	DSqs []float64 `json:"d_sqs,omitempty"`
}

// validate rejects ragged candidate arrays.
func (c *Candidates) validate() error {
	n := len(c.IDs)
	if len(c.Xs) != n || len(c.Ys) != n || len(c.DSqs) != n {
		return fmt.Errorf("ragged candidate arrays: ids=%d xs=%d ys=%d dsqs=%d",
			n, len(c.Xs), len(c.Ys), len(c.DSqs))
	}
	return nil
}

// ProbeResponse carries a probe's candidate set. For OpCount only Count is
// set.
type ProbeResponse struct {
	Candidates
	Count int       `json:"count,omitempty"`
	Stats WireStats `json:"stats,omitempty"`
}

// validate rejects structurally broken responses (truncated arrays, negative
// counts) so corruption surfaces as a transient envelope error — retried and
// failed over — rather than as a wrong answer.
func (r *ProbeResponse) validate(op Op) error {
	if op == OpCount {
		if r.Count < 0 {
			return fmt.Errorf("negative count %d", r.Count)
		}
		return nil
	}
	return r.Candidates.validate()
}

// fillNeighborhood rebuilds the shard-local neighborhood from the wire
// arrays into nb, reusing its buffers. Dists[i] = Sqrt(DSqs[i]) is exactly
// the in-process searcher's computation, so the rebuilt neighborhood is
// byte-identical to a local probe's.
func (r *ProbeResponse) fillNeighborhood(center geom.Point, nb *locality.Neighborhood) {
	nb.Center = center
	nb.Points = nb.Points[:0]
	nb.Dists = nb.Dists[:0]
	for i := range r.IDs {
		nb.Points = append(nb.Points, geom.Point{X: r.Xs[i], Y: r.Ys[i]})
		nb.Dists = append(nb.Dists, math.Sqrt(r.DSqs[i]))
	}
}

// BatchProbeRequest is the body of POST /shard/v1/neighborhood-batch: one
// top-k probe per focal (Xs[i], Ys[i]) with a shared K. A non-nil
// ThresholdsSq selects the threshold-clipped probe for every focal.
type BatchProbeRequest struct {
	Xs           []float64 `json:"xs"`
	Ys           []float64 `json:"ys"`
	K            int       `json:"k"`
	ThresholdsSq []float64 `json:"thresholds_sq,omitempty"`
}

// check rejects requests a shard of n points must answer with 400.
func (r *BatchProbeRequest) check(n int) error {
	if r.K <= 0 {
		return fmt.Errorf("k must be positive, got %d", r.K)
	}
	if len(r.Xs) != len(r.Ys) {
		return fmt.Errorf("ragged focal arrays: xs=%d ys=%d", len(r.Xs), len(r.Ys))
	}
	if limit := batchFocalLimit(r.K, n); len(r.Xs) > limit {
		return fmt.Errorf("%d focals exceed the batch cap of %d at k=%d", len(r.Xs), limit, r.K)
	}
	if r.ThresholdsSq != nil && len(r.ThresholdsSq) != len(r.Xs) {
		return fmt.Errorf("thresholds_sq has %d entries for %d focals", len(r.ThresholdsSq), len(r.Xs))
	}
	for _, t := range r.ThresholdsSq {
		if math.IsNaN(t) {
			return fmt.Errorf("NaN threshold")
		}
	}
	return nil
}

// BatchProbeResponse carries every focal's candidates: focal i's are
// Candidates[Off[i]:Off[i+1]]. Stats sum over all focals.
type BatchProbeResponse struct {
	Candidates
	Off   []int     `json:"off"`
	Stats WireStats `json:"stats,omitempty"`
}

// validate rejects ragged arrays and offsets that do not describe exactly
// focals spans over them, so a corrupted batch surfaces as a transient
// envelope error, never as an index panic in the merge.
func (r *BatchProbeResponse) validate(focals int) error {
	if err := r.Candidates.validate(); err != nil {
		return err
	}
	if len(r.Off) != focals+1 {
		return fmt.Errorf("%d offsets for %d focals", len(r.Off), focals)
	}
	if r.Off[0] != 0 {
		return fmt.Errorf("offsets start at %d", r.Off[0])
	}
	for i := 1; i < len(r.Off); i++ {
		if r.Off[i] < r.Off[i-1] {
			return fmt.Errorf("offset %d decreases (%d after %d)", i, r.Off[i], r.Off[i-1])
		}
	}
	if last := r.Off[focals]; last != len(r.IDs) {
		return fmt.Errorf("offsets end at %d, candidates number %d", last, len(r.IDs))
	}
	return nil
}

// appendSpans rebuilds every focal's shard-local neighborhood into dst, one
// span per focal, with Dists = Sqrt(DSqs) as in fillNeighborhood. Call only
// on a validated response.
func (r *BatchProbeResponse) appendSpans(dst *shard.Spans) {
	for i := 1; i < len(r.Off); i++ {
		for j := r.Off[i-1]; j < r.Off[i]; j++ {
			dst.Append(geom.Point{X: r.Xs[j], Y: r.Ys[j]}, math.Sqrt(r.DSqs[j]))
		}
		dst.EndSpan()
	}
}

// WireRect is a bounds rectangle on the wire.
type WireRect struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

func rectToWire(r geom.Rect) WireRect {
	return WireRect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}

func (w WireRect) rect() geom.Rect {
	return geom.Rect{MinX: w.MinX, MinY: w.MinY, MaxX: w.MaxX, MaxY: w.MaxY}
}

// Info is a shard process's identity card (GET /shard/v1/info): what it
// holds and where it believes it sits in the partition. The coordinator
// validates Shard/Shards against its own layout at dial time, so a
// mis-wired replica set fails fast instead of merging wrong candidates.
type Info struct {
	// Name is the serving dataset's name (diagnostic only).
	Name string `json:"name"`

	// Shard and Shards are this process's shard index and the total shard
	// count of the partition it was built from. Shards == 0 means the
	// process does not know the layout (a standalone shard).
	Shard  int `json:"shard"`
	Shards int `json:"shards"`

	// Len is the shard's cardinality; Bounds its index bounds (the
	// coordinator's MINDIST shard-skip key).
	Len    int      `json:"len"`
	Bounds WireRect `json:"bounds"`

	// Index names the index family; Epoch is the shard's snapshot epoch.
	Index string `json:"index"`
	Epoch uint64 `json:"epoch"`

	// Blocks is the shard's outer-side block count.
	Blocks int `json:"blocks"`
}

// BlockHeader describes one outer-side block without its points: MBR and
// count — everything Block-Marking needs to mark it non-contributing.
type BlockHeader struct {
	Span  WireRect `json:"span"`
	Count int      `json:"count"`
}

// BlocksResponse is GET /shard/v1/blocks.
type BlocksResponse struct {
	Blocks []BlockHeader `json:"blocks"`
}

// BlockPointsResponse is GET /shard/v1/block?i=N: one block's points with
// their stable IDs, in index span order.
type BlockPointsResponse struct {
	IDs []int32   `json:"ids"`
	Xs  []float64 `json:"xs"`
	Ys  []float64 `json:"ys"`
}

// validate rejects ragged block-point arrays.
func (r *BlockPointsResponse) validate() error {
	if len(r.Xs) != len(r.IDs) || len(r.Ys) != len(r.IDs) {
		return fmt.Errorf("ragged block arrays: ids=%d xs=%d ys=%d",
			len(r.IDs), len(r.Xs), len(r.Ys))
	}
	return nil
}

// wireError is the JSON error body of non-200 responses.
type wireError struct {
	Error string `json:"error"`
}

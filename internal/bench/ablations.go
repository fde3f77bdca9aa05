package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/index/grid"
	"repro/internal/index/kdtree"
	"repro/internal/index/overlay"
	"repro/internal/index/quadtree"
	"repro/internal/index/rtree"
	"repro/internal/kernel"
	"repro/internal/locality"
	"repro/internal/qcache"
	"repro/internal/shard"
	"repro/internal/stats"
)

// Ablations are experiments beyond the paper's figures that isolate this
// repository's design choices: the contour early-stop of Block-Marking
// preprocessing, the index-agnosticism claim across four index families,
// the 2-kNN-select locality refinement (covered inside fig26), the
// parallel join, the concurrent-serving contention sweep, and the
// columnar-layout scan comparison. They run through the same harness as
// the figures.
var Ablations = []Experiment{ablPreprocess, ablIndexKinds, ablSkew, ablParallel, ablContention, ablLayout, ablKernel, ablShards, ablCancel, ablBatch, ablCache, ablMutate, ablDist}

// ParallelExperiments are the concurrency-focused subset run by
// `knnbench -parallel` (the BENCH_PR2.json trajectory).
var ParallelExperiments = []Experiment{ablParallel, ablContention}

// AnyByID looks up an experiment among both figures and ablations.
func AnyByID(id string) (Experiment, bool) {
	if e, ok := ByID(id); ok {
		return e, true
	}
	for _, e := range Ablations {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- Ablation: contour early-stop vs exhaustive preprocessing ---

var ablPreprocess = Experiment{
	ID:     "abl-preprocess",
	Title:  "Block-Marking preprocessing: contour early-stop vs exhaustive block checks (select-inner-join workload)",
	XLabel: "|outer|",
	Expect: "the contour stop skips distant blocks, so it wins and widens with |outer|; both variants return identical results",
	Cases: func(scale Scale) []Case {
		innerN := 20000
		if scale == ScalePaper {
			innerN = 160000
		}
		inner := BerlinMODRelation("fig19-inner", innerN)
		var cases []Case
		for _, outerN := range sweep(scale,
			[]int{4000, 16000, 64000},
			[]int{64000, 256000, 1024000}) {
			outer := BerlinMODRelation("fig19-outer", outerN)
			cases = append(cases, Case{
				X: fmt.Sprintf("%d", outerN),
				Plans: []Plan{
					{Name: "contour", Run: func(c *stats.Counters) int {
						return len(core.SelectInnerJoinBlockMarking(outer, inner, focal, kDefault, kDefault,
							core.BlockMarkingOptions{}, c))
					}},
					{Name: "exhaustive", Run: func(c *stats.Counters) int {
						return len(core.SelectInnerJoinBlockMarking(outer, inner, focal, kDefault, kDefault,
							core.BlockMarkingOptions{Exhaustive: true}, c))
					}},
				},
			})
		}
		return cases
	},
}

// --- Ablation: index families ---

var ablIndexKinds = Experiment{
	ID:     "abl-index",
	Title:  "index-agnosticism: Block-Marking select-inner-join over grid, quadtree, k-d tree and R-tree",
	XLabel: "|outer|",
	Expect: "all index families return identical results; space-tiling indexes benefit from the contour stop",
	Cases: func(scale Scale) []Case {
		innerN := 20000
		if scale == ScalePaper {
			innerN = 160000
		}
		var cases []Case
		for _, outerN := range sweep(scale, []int{4000, 16000}, []int{64000, 256000}) {
			// Build every relation up front so dataset generation and index
			// construction stay out of the measurements.
			gridOuter := BerlinMODRelation("fig19-outer", outerN)
			gridInner := BerlinMODRelation("fig19-inner", innerN)
			var plans []Plan
			plans = append(plans, Plan{Name: "grid", Run: func(c *stats.Counters) int {
				return len(core.SelectInnerJoinBlockMarking(gridOuter, gridInner,
					focal, kDefault, kDefault, core.BlockMarkingOptions{}, c))
			}})
			for _, kind := range []string{"quadtree", "kdtree", "rtree"} {
				outer := variantRelation(kind, fmt.Sprintf("bm/fig19-outer/%d", outerN), BerlinMODPoints("fig19-outer", outerN))
				inner := variantRelation(kind, fmt.Sprintf("bm/fig19-inner/%d", innerN), BerlinMODPoints("fig19-inner", innerN))
				plans = append(plans, Plan{Name: kind, Run: func(c *stats.Counters) int {
					return len(core.SelectInnerJoinBlockMarking(outer, inner,
						focal, kDefault, kDefault, core.BlockMarkingOptions{}, c))
				}})
			}
			cases = append(cases, Case{X: fmt.Sprintf("%d", outerN), Plans: plans})
		}
		return cases
	},
}

// variantRelation builds (and memoizes under kind and key) a non-grid
// relation over pts.
func variantRelation(kind, key string, pts []geom.Point) *core.Relation {
	key = kind + "/" + key
	datasetCache.Lock()
	if rel, ok := datasetCache.relations[key]; ok {
		datasetCache.Unlock()
		return rel
	}
	datasetCache.Unlock()

	var (
		ix  index.Index
		err error
	)
	switch kind {
	case "quadtree":
		ix, err = quadtree.New(pts, quadtree.Options{LeafCapacity: DefaultPerCell, Bounds: Bounds})
	case "kdtree":
		ix, err = kdtree.New(pts, kdtree.Options{LeafCapacity: DefaultPerCell, Bounds: Bounds})
	case "rtree":
		ix, err = rtree.New(pts, rtree.Options{LeafCapacity: DefaultPerCell})
	default:
		panic(fmt.Sprintf("bench: unknown index variant %q", kind))
	}
	if err != nil {
		panic(fmt.Sprintf("bench: building %s relation: %v", kind, err)) // fixed config; cannot fail
	}
	rel := core.NewRelation(ix)
	datasetCache.Lock()
	datasetCache.relations[key] = rel
	datasetCache.Unlock()
	return rel
}

// --- Ablation: skewed data, grid occupancy vs tree indexes ---

var ablSkew = Experiment{
	ID:     "abl-skew",
	Title:  "skewed data: uniform outer over a clustered inner (8 clusters, r=300), grid vs quadtree, k-d tree and R-tree",
	XLabel: "query",
	Expect: "the grid's ring walk skips empty cells through its occupancy bitmaps, so on data that leaves most cells empty it no longer trails the adaptive trees; all indexes agree",
	Cases: func(scale Scale) []Case {
		outerN, perCluster := 2000, 2500
		if scale == ScalePaper {
			perCluster = 25000
		}
		outerPts := UniformPoints("skew-outer", outerN)
		innerPts := ClusteredPoints("skew-inner", 8, perCluster, 300)
		rels := map[string][2]*core.Relation{
			"grid": {Relation("un/skew-outer", outerPts), ClusteredRelation("skew-inner", 8, perCluster, 300)},
		}
		kinds := []string{"grid", "quadtree", "kdtree", "rtree"}
		for _, kind := range kinds[1:] {
			rels[kind] = [2]*core.Relation{
				variantRelation(kind, fmt.Sprintf("un/skew-outer/%d", outerN), outerPts),
				variantRelation(kind, fmt.Sprintf("cl/skew-inner/%d", perCluster), innerPts),
			}
		}
		queries := []struct {
			name string
			run  func(outer, inner *core.Relation, c *stats.Counters) int
		}{
			{"knn-join k=5", func(outer, inner *core.Relation, c *stats.Counters) int {
				return len(core.KNNJoin(outer, inner, 5, c))
			}},
			{"select-inner-join k=5,64", func(outer, inner *core.Relation, c *stats.Counters) int {
				return len(core.SelectInnerJoinBlockMarking(outer, inner, focal, 5, 64, core.BlockMarkingOptions{}, c))
			}},
		}
		var cases []Case
		for _, q := range queries {
			var plans []Plan
			for _, kind := range kinds {
				outer, inner, run := rels[kind][0], rels[kind][1], q.run
				plans = append(plans, Plan{Name: kind, Run: func(c *stats.Counters) int { return run(outer, inner, c) }})
			}
			cases = append(cases, Case{X: q.name, Plans: plans})
		}
		return cases
	},
}

// --- Ablation: parallel kNN-join scaling ---

var ablParallel = Experiment{
	ID:     "abl-parallel",
	Title:  "parallel kNN-join: worker scaling on a 20k x 20k BerlinMOD join (k=10)",
	XLabel: "workload",
	Expect: "near-linear scaling until memory bandwidth saturates; identical results at every worker count",
	Cases: func(scale Scale) []Case {
		n := 20000
		if scale == ScalePaper {
			n = 100000
		}
		outer := BerlinMODRelation("fig19-outer", n)
		inner := BerlinMODRelation("fig19-inner", n)
		var plans []Plan
		for _, workers := range []int{1, 2, 4, 8} {
			workers := workers
			plans = append(plans, Plan{
				Name: fmt.Sprintf("workers=%d", workers),
				Run: func(c *stats.Counters) int {
					return len(core.KNNJoinParallel(outer, inner, kDefault, workers, c))
				},
			})
		}
		return []Case{{X: fmt.Sprintf("%dx%d", n, n), Plans: plans}}
	},
}

// --- Ablation: concurrent query serving under contention ---

// ablContention measures the cost of serving a fixed batch of kNN-selects
// from 1, 4 and 16 goroutines over one shared relation. "pooled" is the
// repository's concurrency layer (each query borrows a searcher handle from
// the relation's pool); "mutex" is the naive alternative — one shared
// searcher behind a lock — which serializes every neighborhood computation
// and shows what the pool buys.
var ablContention = Experiment{
	ID:     "abl-contention",
	Title:  "concurrent query serving: a fixed kNN-select batch over one shared BerlinMOD index, pooled handles vs a mutex-guarded searcher",
	XLabel: "goroutines",
	Expect: "pooled handles keep total time near-flat (or falling) with more goroutines; the mutex serializes and stays flat at best; identical result cardinality everywhere",
	Cases: func(scale Scale) []Case {
		n, queries := 20000, 4096
		if scale == ScalePaper {
			n, queries = 100000, 16384
		}
		rel := BerlinMODRelation("fig19-inner", n)
		probes := UniformPoints("contention/probes", queries)
		var cases []Case
		for _, g := range []int{1, 4, 16} {
			g := g
			cases = append(cases, Case{
				X: fmt.Sprintf("%d", g),
				Plans: []Plan{
					{Name: "pooled", Run: func(c *stats.Counters) int {
						return contentionBatch(probes, g, c, func(q geom.Point, ctr *stats.Counters) int {
							h := rel.Acquire()
							defer h.Release()
							return h.S.Neighborhood(q, kDefault, ctr).Len()
						})
					}},
					{Name: "mutex", Run: func(c *stats.Counters) int {
						var mu sync.Mutex
						return contentionBatch(probes, g, c, func(q geom.Point, ctr *stats.Counters) int {
							mu.Lock()
							defer mu.Unlock()
							return rel.S.Neighborhood(q, kDefault, ctr).Len()
						})
					}},
				},
			})
		}
		return cases
	},
}

// --- Ablation: columnar (SoA) span scan vs array-of-structs scan ---

// ablLayout isolates the PR 3 storage change: the same radius filter — the
// distance-scan inner loop underneath every query shape — runs once over
// the relation's flat X/Y span columns ("soa-span") and once over an
// AoS shadow copy of the identical blocks ([]geom.Point per block,
// "aos-struct"). Identical counts prove the layouts hold the same points;
// the time ratio is the layout win recorded in the perf trajectory.
var ablLayout = Experiment{
	ID:     "abl-layout",
	Title:  "point-storage layout: columnar SoA span scan vs AoS struct scan (full-relation radius filter, BerlinMOD)",
	XLabel: "|points|",
	Expect: "the flat X/Y span scan is at parity or faster than the AoS struct scan at every cardinality; identical counts",
	Cases: func(scale Scale) []Case {
		// The squared radius is loop-invariant: hoisted out of the timed
		// scans so the measurement isolates the storage layouts instead of
		// re-deriving the bound per point.
		const radiusSq = 500.0 * 500.0
		probes := UniformPoints("layout/probes", 64)
		var cases []Case
		for _, n := range sweep(scale, []int{20000, 80000}, []int{160000, 640000}) {
			rel := BerlinMODRelation("layout", n)
			blocks := rel.Ix.Blocks()
			// AoS shadow build: the same points in the same block order,
			// materialized as one []geom.Point per block.
			shadow := make([][]geom.Point, len(blocks))
			for i, b := range blocks {
				shadow[i] = b.AppendPoints(nil)
			}
			cases = append(cases, Case{
				X: fmt.Sprintf("%d", n),
				Plans: []Plan{
					{Name: "soa-span", Run: func(c *stats.Counters) int {
						total := 0
						for _, q := range probes {
							for _, b := range blocks {
								total += b.CountWithinSq(q, radiusSq)
							}
						}
						return total
					}},
					{Name: "aos-struct", Run: func(c *stats.Counters) int {
						total := 0
						for _, q := range probes {
							for _, pts := range shadow {
								for _, p := range pts {
									if p.DistSq(q) <= radiusSq {
										total++
									}
								}
							}
						}
						return total
					}},
				},
			})
		}
		return cases
	},
}

// --- Ablation: batched distance kernels (scalar reference vs AVX2) ---

// kernelPlans wraps one workload into a plan per available kernel
// implementation, switching dispatch with kernel.Use around the timed run.
// On builds or hosts without a fast path (purego, non-AVX2 CPUs) only the
// scalar plan runs, so the ablation degrades to a baseline recording.
func kernelPlans(run func(c *stats.Counters) int) []Plan {
	var plans []Plan
	for _, name := range kernel.Available() {
		plans = append(plans, Plan{Name: "kernel=" + name, Run: func(c *stats.Counters) int {
			restore, err := kernel.Use(name)
			if err != nil {
				panic(fmt.Sprintf("bench: switching kernel: %v", err)) // registered name; cannot fail
			}
			defer restore()
			return run(c)
		}})
	}
	return plans
}

// ablKernel isolates the PR 5 batched-kernel layer on the PR 3/PR 4
// workloads: the relation-wide block radius scan (the abl-layout primitive)
// at the paper-faithful 16-point grid grain and at a production 256-point
// grain, the basic kNN-join and the Counting select-inner-join (whose
// per-tuple threshold scan is the fused MinDistSq kernel) at the production
// grain, and the sharded scatter/gather join. Identical result
// cardinalities across plans double as a bit-exactness check at workload
// scale; the timing ratio is the vectorization win. Below the dispatch
// grain (16-point cells) the plans converge by design — the scalar loop is
// the right kernel there, which the grain sweep makes visible.
var ablKernel = Experiment{
	ID:     "abl-kernel",
	Title:  "batched distance kernels: scalar reference vs AVX2 dispatch across scan grain and query shape (BerlinMOD)",
	XLabel: "workload",
	Expect: "identical cardinalities everywhere; AVX2 wins grow with block grain on the raw scans (target >=1.3x at 256-point cells), stay parity at the 16-point grain and on neighborhood-dominated joins",
	Cases: func(scale Scale) []Case {
		const radiusSq = 500.0 * 500.0
		probes := UniformPoints("layout/probes", 64)
		scanN := 80000
		joinN := 20000
		if scale == ScalePaper {
			scanN, joinN = 640000, 100000
		}

		var cases []Case
		for _, perCell := range []int{16, 256} {
			blocks := BerlinMODRelationCell("layout", scanN, perCell).Ix.Blocks()
			cases = append(cases, Case{
				X: fmt.Sprintf("scan-cells%d-%d", perCell, scanN),
				Plans: kernelPlans(func(c *stats.Counters) int {
					total := 0
					for _, q := range probes {
						for _, b := range blocks {
							total += b.CountWithinSq(q, radiusSq)
						}
					}
					return total
				}),
			})
		}

		outer := BerlinMODRelationCell("fig19-outer", joinN, 256)
		inner := BerlinMODRelationCell("fig19-inner", joinN, 256)
		cases = append(cases,
			Case{
				X: fmt.Sprintf("join-cells256-%d", joinN),
				Plans: kernelPlans(func(c *stats.Counters) int {
					return len(core.KNNJoin(outer, inner, kDefault, c))
				}),
			},
			Case{
				X: fmt.Sprintf("counting-ksel64-%d", joinN),
				Plans: kernelPlans(func(c *stats.Counters) int {
					return len(core.SelectInnerJoinCounting(outer, inner, focal, kDefault, 64, c))
				}),
			},
		)

		outerPts := BerlinMODPoints("fig19-outer", joinN)
		innerPts := BerlinMODPoints("fig19-inner", joinN)
		build := func(st *geom.PointStore) (index.Index, error) {
			if st.Len() == 0 {
				return grid.NewFromStore(st, grid.Options{TargetPerCell: 256, Bounds: Bounds})
			}
			return grid.NewFromStore(st, grid.Options{TargetPerCell: 256})
		}
		mkShards := func(pts []geom.Point) shard.Group {
			rel, err := shard.New(pts, 4, shard.PolicySpatial, 0, build)
			if err != nil {
				panic(fmt.Sprintf("bench: building sharded relation: %v", err)) // fixed config; cannot fail
			}
			return rel.Group()
		}
		outerSh, innerSh := mkShards(outerPts), mkShards(innerPts)
		cases = append(cases, Case{
			X: fmt.Sprintf("sharded-join-s4-%d", joinN),
			Plans: kernelPlans(func(c *stats.Counters) int {
				return len(shard.Join(nil, outerSh, innerSh, kDefault, 1, c))
			}),
		})
		return cases
	},
}

// --- Ablation: sharded scatter/gather vs the single-relation baseline ---

// ShardCounts is the shard-count sweep of the abl-shards experiment;
// `knnbench -shards 1,2,4` overrides it.
var ShardCounts = []int{1, 2, 4, 8}

// ablShards isolates the PR 4 sharding subsystem: the same kNN-join runs
// over one un-sharded relation pair ("single", the baseline) and over
// hash- and spatially-partitioned ShardedRelation pairs at each shard
// count. The harness's per-row cardinality agreement doubles as an
// exactness check at benchmark scale; the timing series is the
// scatter/gather overhead curve (each probe fans out to S per-shard
// candidate generations, so single-threaded cost grows with S — the payoff
// is per-shard parallelism and the horizontal-scaling story, not
// single-core speed).
var ablShards = Experiment{
	ID:     "abl-shards",
	Title:  "sharded scatter/gather: kNN-join over S hash/spatial shards vs the single-relation baseline (k=10, BerlinMOD)",
	XLabel: "shards",
	Expect: "identical result cardinality at every shard count and policy; per-probe cost grows with the per-shard fan-out, spatial partitioning keeps distant shards cheap",
	Cases: func(scale Scale) []Case {
		n := 20000
		if scale == ScalePaper {
			n = 100000
		}
		outerPts := BerlinMODPoints("fig19-outer", n)
		innerPts := BerlinMODPoints("fig19-inner", n)
		outerSingle := BerlinMODRelation("fig19-outer", n)
		innerSingle := BerlinMODRelation("fig19-inner", n)

		build := func(st *geom.PointStore) (index.Index, error) {
			// Fit each shard's grid to its own extent (as the public
			// NewShardedRelation does): a spatial shard's cells then tile its
			// tile, not the whole region.
			if st.Len() == 0 {
				return grid.NewFromStore(st, grid.Options{TargetPerCell: DefaultPerCell, Bounds: Bounds})
			}
			return grid.NewFromStore(st, grid.Options{TargetPerCell: DefaultPerCell})
		}
		sharded := func(pts []geom.Point, s int, p shard.Policy) shard.Group {
			rel, err := shard.New(pts, s, p, 0, build)
			if err != nil {
				panic(fmt.Sprintf("bench: building sharded relation: %v", err)) // fixed config; cannot fail
			}
			return rel.Group()
		}

		var cases []Case
		for _, s := range ShardCounts {
			s := s
			outerHash, innerHash := sharded(outerPts, s, shard.PolicyHash), sharded(innerPts, s, shard.PolicyHash)
			outerSp, innerSp := sharded(outerPts, s, shard.PolicySpatial), sharded(innerPts, s, shard.PolicySpatial)
			cases = append(cases, Case{
				X: fmt.Sprintf("%d", s),
				Plans: []Plan{
					{Name: "single", Run: func(c *stats.Counters) int {
						h := innerSingle.Acquire()
						defer h.Release()
						return len(core.KNNJoin(outerSingle, h, kDefault, c))
					}},
					{Name: "hash", Run: func(c *stats.Counters) int {
						return len(shard.Join(nil, outerHash, innerHash, kDefault, 1, c))
					}},
					{Name: "spatial", Run: func(c *stats.Counters) int {
						return len(shard.Join(nil, outerSp, innerSp, kDefault, 1, c))
					}},
				},
			})
		}
		return cases
	},
}

// --- Ablation: batched multi-query execution vs a per-focal loop ---

// ablBatch isolates the PR 8 batch driver: the same set of kNN-select focals
// runs once through a sequential per-focal loop (one independent index walk
// per query, the pre-batching serving path) and once through
// batch.Driver.KNNSelect (Z-order grouped focals, one shared block walk and
// batched distance kernels per group). Focals come from tight clusters — the
// served-workload shape the batch route exists for, many concurrent queries
// about the same hot area — so a Z-order group shares most of its block
// frontier. Identical result cardinality per case is the harness's
// exactness check; the timing ratio at each batch size is the amortization
// curve. Both plans run the same focal count, so the plan-time ratio is the
// per-query (ns/query) ratio directly.
var ablBatch = Experiment{
	ID:     "abl-batch",
	Title:  "batched kNN-select: shared block walk over Z-ordered focals vs a per-focal sequential loop (k=10, BerlinMOD, clustered focals)",
	XLabel: "workload",
	Expect: "identical cardinalities everywhere; the shared walk's win grows with batch size (target >=1.5x per query at batch >=64 on 16-point cells) and shrinks at coarse 256-point cells where per-block work already amortizes the walk",
	Cases: func(scale Scale) []Case {
		n := 80000
		if scale == ScalePaper {
			n = 640000
		}
		focalPool := ClusteredPoints("abl-batch/focals", 8, 64, 100)
		var cases []Case
		for _, perCell := range []int{16, 256} {
			rel := BerlinMODRelationCell("abl-batch", n, perCell)
			for _, batchN := range []int{1, 16, 64, 256} {
				focals := focalPool[:batchN]
				cases = append(cases, Case{
					X: fmt.Sprintf("batch%d-cells%d-%d", batchN, perCell, n),
					Plans: []Plan{
						{Name: "seq-loop", Run: func(c *stats.Counters) int {
							h := rel.Acquire()
							defer h.Release()
							total := 0
							for _, q := range focals {
								total += h.S.Neighborhood(q, kDefault, c).Len()
							}
							return total
						}},
						{Name: "batched", Run: func(c *stats.Counters) int {
							h := rel.Acquire()
							defer h.Release()
							d := batch.Acquire()
							defer batch.Release(d)
							total := 0
							for _, nb := range d.KNNSelect(h, focals, kDefault, c) {
								total += nb.Len()
							}
							return total
						}},
					},
				})
			}
		}
		return cases
	},
}

// --- Ablation: epoch-keyed result cache on a skewed focal workload ---

// ablCache isolates the PR 8 result cache: a fixed stream of kNN-selects
// whose focals repeat (the skew a served workload exhibits) runs once
// recomputing every query and once through a fresh qcache — first touch of
// each distinct focal computes and memoizes its stable-ID answer, repeats
// are served from the cache. The distinct-focal sweep moves the hit rate
// (queries-distinct)/queries from ~98% down to 75%, which is the win curve;
// the cache is rebuilt inside every timed run so each measurement includes
// its own cold misses. Equal totals across plans prove hits return the
// computed answer's cardinality.
var ablCache = Experiment{
	ID:     "abl-cache",
	Title:  "query result cache: skewed kNN-select stream through qcache vs always recomputing (k=10, BerlinMOD)",
	XLabel: "distinct focals",
	Expect: "identical cardinalities everywhere; the cached plan's win tracks the hit rate, shrinking as the distinct-focal count grows",
	Cases: func(scale Scale) []Case {
		n, queries := 20000, 4096
		if scale == ScalePaper {
			n, queries = 100000, 16384
		}
		rel := BerlinMODRelation("abl-cache", n)
		// The stable-ID table a serving layer keeps (the cache stores int32
		// IDs, not points) is prebuilt outside the timed region, first
		// occurrence winning for co-located points as in the server.
		pts := BerlinMODPoints("abl-cache", n)
		idOf := make(map[geom.Point]int32, len(pts))
		for i, p := range pts {
			if _, ok := idOf[p]; !ok {
				idOf[p] = int32(i)
			}
		}
		var cases []Case
		for _, distinct := range []int{64, 256, 1024} {
			focals := UniformPoints("abl-cache/focals", distinct)
			cases = append(cases, Case{
				X: fmt.Sprintf("%d", distinct),
				Plans: []Plan{
					{Name: "uncached", Run: func(c *stats.Counters) int {
						h := rel.Acquire()
						defer h.Release()
						total := 0
						for i := 0; i < queries; i++ {
							total += h.S.Neighborhood(focals[i%distinct], kDefault, c).Len()
						}
						return total
					}},
					{Name: "cached", Run: func(c *stats.Counters) int {
						h := rel.Acquire()
						defer h.Release()
						cache := qcache.New[[]int32](4096)
						total := 0
						for i := 0; i < queries; i++ {
							q := focals[i%distinct]
							key := qcache.Key{Epoch: 1, FX: q.X, FY: q.Y, K: kDefault, Shape: qcache.ShapeKNNSelect}
							if ids, ok := cache.Get(key); ok {
								c.AddCacheHit()
								total += len(ids)
								continue
							}
							c.AddCacheMiss()
							nb := h.S.Neighborhood(q, kDefault, c)
							ids := make([]int32, 0, nb.Len())
							for _, p := range nb.Points {
								ids = append(ids, idOf[p])
							}
							cache.Put(key, ids)
							total += len(ids)
						}
						return total
					}},
				},
			})
		}
		return cases
	},
}

// contentionBatch splits the probe batch across g goroutines and sums the
// per-query result sizes (the cardinality the harness verifies across
// plans).
func contentionBatch(probes []geom.Point, g int, c *stats.Counters, query func(geom.Point, *stats.Counters) int) int {
	var total atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			found := 0
			for i := w; i < len(probes); i += g {
				found += query(probes[i], c)
			}
			total.Add(int64(found))
		}(w)
	}
	wg.Wait()
	return int(total.Load())
}

// --- Ablation: cancellation checkpoint overhead ---

// liveCtx never expires but carries a live Done channel, so a handle bound
// to it pays the full per-checkpoint polling cost (the non-blocking channel
// select); an unbound handle takes the nil-channel fast path. The cancel
// func is retained so the context stays live for the process lifetime.
var liveCtx, liveCtxKeepAlive = context.WithCancel(context.Background())

var _ = liveCtxKeepAlive

// ablCancel isolates the PR 6 robustness layer: the same sequential
// kNN-join runs on an unbound searcher handle (checkpoints take the
// nil-binding fast path — the cost every context-free query pays) and on a
// handle bound to a live, never-expiring context (checkpoints poll the Done
// channel — the cost WithContext adds). Checkpoints fire once per block
// span, never per point, so the delta bounds the whole feature's overhead.
var ablCancel = Experiment{
	ID:     "abl-cancel",
	Title:  "cancellation checkpoints: kNN-join on an unbound handle vs a live bound context (k=10, BerlinMOD)",
	XLabel: "|outer| = |inner|",
	Expect: "polling is per block span, off the per-point path: the bound-context join stays within ~2% of the unbound baseline; identical results",
	Cases: func(scale Scale) []Case {
		sizes := []int{5000, 20000}
		if scale == ScalePaper {
			sizes = []int{20000, 100000}
		}
		var cases []Case
		for _, n := range sizes {
			outer := BerlinMODRelation("fig19-outer", n)
			inner := BerlinMODRelation("fig19-inner", n)
			cases = append(cases, Case{
				X: fmt.Sprintf("%d", n),
				Plans: []Plan{
					{Name: "unbound", Run: func(c *stats.Counters) int {
						h := inner.Acquire()
						defer h.Release()
						return len(core.KNNJoin(outer, h, kDefault, c))
					}},
					{Name: "bound-ctx", Run: func(c *stats.Counters) int {
						h, err := inner.AcquireCtx(liveCtx)
						if err != nil {
							panic(err) // liveCtx never expires
						}
						defer h.Release()
						return len(core.KNNJoin(outer, h, kDefault, c))
					}},
				},
			})
		}
		return cases
	},
}

// --- Ablation: mutable-relation delta overlay ---

// ablMutate isolates the PR 9 delta overlay: the same kNN-select stream
// runs over an overlay snapshot holding a growing delta fraction (half
// fresh inserts, half base tombstones) and over the block-contiguous
// rebuild of the identical live set — the state an epoch-swapped merge
// produces. Equal cardinalities are the post-compact parity proof; the
// ns/op gap between the two plans is the price of reading through the
// overlay, and the single-plan merge cases price the compaction itself
// (live-set extraction + fresh grid build) at each residency level. At
// fraction 0 the overlay snapshot IS the base index, so that row doubles
// as the static baseline the compacted plan must sit within noise of.
var ablMutate = Experiment{
	ID:     "abl-mutate",
	Title:  "mutable relations: kNN-select through a delta overlay vs the compacted rebuild of the same live set (k=10, BerlinMOD, 64 clustered focals)",
	XLabel: "delta fraction",
	Expect: "identical cardinalities between overlay and compacted at every fraction; overlay cost grows with delta residency while compacted stays flat at the fraction-0 baseline, and merge cost scales with the live set, not the delta",
	Cases: func(scale Scale) []Case {
		n := 40000
		if scale == ScalePaper {
			n = 200000
		}
		focals := ClusteredPoints("abl-mutate/focals", 8, 8, 100)
		var cases []Case
		for _, pct := range []int{0, 1, 10, 50} {
			base := BerlinMODRelationCell("abl-mutate", n, 64).Ix
			ov := overlay.NewStore(base, 64)
			m := n * pct / 100
			ins := UniformPoints(fmt.Sprintf("abl-mutate/delta%d", pct), m/2)
			next := int32(n)
			for _, p := range ins {
				ov.Insert(p, next)
				next++
			}
			for i := 0; i < m-len(ins); i++ {
				// Stride 7 is coprime with the sweep sizes, so every removal
				// hits a distinct live base ID.
				ov.Remove(int32(i * 7 % n))
			}
			snap := ov.Snapshot()
			live := ov.LiveStore()
			compacted, err := grid.NewFromStore(live, grid.Options{TargetPerCell: 64, Bounds: snap.Bounds()})
			if err != nil {
				panic(fmt.Sprintf("bench: abl-mutate compacted rebuild: %v", err))
			}
			sOverlay := locality.NewSearcher(snap)
			sCompacted := locality.NewSearcher(compacted)
			cases = append(cases,
				Case{
					X: fmt.Sprintf("%d%%-%d", pct, n),
					Plans: []Plan{
						{Name: "overlay", Run: func(c *stats.Counters) int {
							total := 0
							for _, q := range focals {
								total += sOverlay.Neighborhood(q, kDefault, c).Len()
							}
							return total
						}},
						{Name: "compacted", Run: func(c *stats.Counters) int {
							total := 0
							for _, q := range focals {
								total += sCompacted.Neighborhood(q, kDefault, c).Len()
							}
							return total
						}},
					},
				},
				// The merge rows price compaction itself, with the same column
				// names so the reporter aligns them: "overlay" extracts the
				// live set out of the delta overlay and rebuilds, "compacted"
				// rebuilds from already-contiguous data (copy + build). The
				// gap between them is the extraction overhead; both scale
				// with the live set, not the delta.
				Case{
					X: fmt.Sprintf("merge-%d%%-%d", pct, n),
					Plans: []Plan{
						{Name: "overlay", Run: func(c *stats.Counters) int {
							ls := ov.LiveStore()
							if _, err := grid.NewFromStore(ls, grid.Options{TargetPerCell: 64, Bounds: snap.Bounds()}); err != nil {
								panic(fmt.Sprintf("bench: abl-mutate merge: %v", err))
							}
							return ls.Len()
						}},
						{Name: "compacted", Run: func(c *stats.Counters) int {
							cp := geom.NewPointStore(live.Len())
							for i := 0; i < live.Len(); i++ {
								cp.AppendWithID(live.At(i), live.ID(i))
							}
							if _, err := grid.NewFromStore(cp, grid.Options{TargetPerCell: 64, Bounds: snap.Bounds()}); err != nil {
								panic(fmt.Sprintf("bench: abl-mutate rebuild: %v", err))
							}
							return cp.Len()
						}},
					},
				})
		}
		return cases
	},
}

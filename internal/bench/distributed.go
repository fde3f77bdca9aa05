package bench

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/index/grid"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/internal/stats"
)

// --- Ablation: remote scatter/gather vs the in-process layouts ---

// ablDist prices the PR 10 process boundary on two workloads. The kNN-select
// stream (16 focals, k=10) runs over the in-process sharded group, over
// loopback transports (the ShardTransport seam with zero serialization),
// over real HTTP/JSON endpoints, and over the same HTTP fleet with one
// artificially slow shard (injected per-probe latency) — the straggler cost
// the robustness envelope's hedging exists to bound. The kNN-join rows
// ("S/join") run a 200-point local outer against the same four layouts of
// the inner: the probes of each outer block go out as batched rounds, at
// most one round trip per shard per round. Every remote plan reports its
// envelope attempts per query next to its latency, and per-case cardinality
// agreement across all four plans doubles as a wire-exactness check at
// benchmark scale.
var ablDist = Experiment{
	ID:     "abl-dist",
	Title:  "remote scatter/gather: kNN-select stream and 200-point kNN-join over in-process shards vs loopback vs HTTP transports (k=10, BerlinMOD)",
	XLabel: "shards",
	Expect: "identical result cardinality on every transport; loopback tracks in-process, HTTP adds per-round-trip wire cost, a slow shard dominates the latency; a join costs a few round trips per outer block, not one per outer point",
	Cases: func(scale Scale) []Case {
		n := 20000
		if scale == ScalePaper {
			n = 100000
		}
		pts := BerlinMODPoints("fig19-outer", n)
		outerIx, err := grid.New(BerlinMODPoints("abl-dist-join-outer", 200), grid.Options{TargetPerCell: DefaultPerCell, Bounds: Bounds})
		if err != nil {
			panic(fmt.Sprintf("bench: building join outer: %v", err)) // fixed config; cannot fail
		}
		outer := shard.SingleGroup(core.NewRelation(outerIx))

		// The query stream: a fixed diagonal of focals across the region.
		focals := make([]geom.Point, 16)
		for i := range focals {
			focals[i] = geom.Point{X: 500 + 600*float64(i), Y: 9500 - 600*float64(i)}
		}
		stream := func(g shard.Group) func(c *stats.Counters) int {
			return func(c *stats.Counters) int {
				total := 0
				for _, f := range focals {
					total += len(shard.Select(nil, g, f, kDefault, c))
				}
				return total
			}
		}
		join := func(g shard.Group) func(c *stats.Counters) int {
			return func(c *stats.Counters) int {
				return len(shard.Join(nil, outer, g, kDefault, 1, c))
			}
		}

		build := func(st *geom.PointStore) (index.Index, error) {
			if st.Len() == 0 {
				return grid.NewFromStore(st, grid.Options{TargetPerCell: DefaultPerCell, Bounds: Bounds})
			}
			return grid.NewFromStore(st, grid.Options{TargetPerCell: DefaultPerCell})
		}

		var streams, joins []Case
		for _, s := range ShardCounts {
			rel, err := shard.New(pts, s, shard.PolicyHash, 0, build)
			if err != nil {
				panic(fmt.Sprintf("bench: building sharded relation: %v", err)) // fixed config; cannot fail
			}

			// One ShardServer per shard backs both remote transports; the
			// HTTP plan serves it over a real socket.
			loops := make([][]remote.ShardTransport, s)
			https := make([][]remote.ShardTransport, s)
			var slowEndpoint string
			for i := 0; i < s; i++ {
				srv := remote.NewShardServer(rel.Shard(i), remote.ShardServerConfig{
					Name: "abl-dist", Shard: i, Shards: s, Index: "grid",
				})
				loops[i] = []remote.ShardTransport{remote.NewLoopback(srv, "")}
				hs := httptest.NewServer(srv)
				https[i] = []remote.ShardTransport{remote.NewHTTPTransport(hs.URL, nil)}
				if i == 0 {
					slowEndpoint = hs.URL
				}
			}
			dial := func(tps [][]remote.ShardTransport) (shard.Group, func() int64) {
				members, err := remote.Dial(context.Background(), tps, remote.Options{})
				if err != nil {
					panic(fmt.Sprintf("bench: dialing remote group: %v", err)) // in-process endpoints; cannot fail
				}
				attempts := func() int64 {
					total := int64(0)
					for _, m := range members {
						for _, ep := range m.NetStats().Endpoints {
							total += ep.Attempts
						}
					}
					return total
				}
				return remote.NewGroup(members, nil), attempts
			}
			loopback, loopTrips := dial(loops)
			http, httpTrips := dial(https)
			// Shard 0 answers 2ms late on every round trip: the straggler
			// profile of an overloaded replica.
			slow1 := func(run func(c *stats.Counters) int) func(c *stats.Counters) int {
				return func(c *stats.Counters) int {
					fault.Arm(&fault.Injector{DelayProbe: func(ep string) time.Duration {
						if ep == slowEndpoint {
							return 2 * time.Millisecond
						}
						return 0
					}})
					defer fault.Disarm()
					return run(c)
				}
			}
			plans := func(workload func(g shard.Group) func(c *stats.Counters) int, queries int) []Plan {
				return []Plan{
					{Name: "in-process", Run: workload(rel.Group())},
					{Name: "loopback", Run: workload(loopback), RoundTrips: loopTrips, Queries: queries},
					{Name: "http", Run: workload(http), RoundTrips: httpTrips, Queries: queries},
					{Name: "http-slow1", Run: slow1(workload(http)), RoundTrips: httpTrips, Queries: queries},
				}
			}
			streams = append(streams, Case{X: fmt.Sprintf("%d", s), Plans: plans(stream, len(focals))})
			joins = append(joins, Case{X: fmt.Sprintf("%d/join", s), Plans: plans(join, 1)})
		}
		return append(streams, joins...)
	},
}

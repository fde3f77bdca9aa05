package twoknn_test

// Differential oracle and chaos battery for the distributed scatter/gather
// layer: every query shape evaluated against a RemoteRelation must be
// byte-identical (after canonical sort) to the single-relation evaluation
// over the same points — across transports (loopback, real HTTP), replica
// layouts, and under injected network faults (dropped probes, connection
// resets, slow endpoints), where the robustness envelope's retries,
// failover and breakers must recover the exact answer or fail closed with
// the typed error taxonomy. The scaffolding (oracleDataset, computeExpected,
// checkShardedBattery) is shared with sharded_test.go.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	twoknn "repro"
	"repro/internal/fault"
	"repro/internal/remote"
	"repro/internal/shard"
)

// fastRemoteCfg keeps retry/breaker timing short so fault scenarios resolve
// quickly; exactness is unaffected.
func fastRemoteCfg() *twoknn.RemoteConfig {
	return &twoknn.RemoteConfig{
		ProbeTimeout:     2 * time.Second,
		RetryBackoff:     time.Millisecond,
		HedgeAfter:       25 * time.Millisecond,
		BreakerCooldown:  100 * time.Millisecond,
		BreakerThreshold: 3,
	}
}

// shardHandlers builds the serving side of every shard of one dataset.
func shardHandlers(t *testing.T, name string, pts []twoknn.Point, shards int, policy twoknn.ShardPolicy) []http.Handler {
	t.Helper()
	out := make([]http.Handler, shards)
	for s := 0; s < shards; s++ {
		h, err := twoknn.NewShardHandler(name, pts, s, shards,
			twoknn.WithIndexKind(twoknn.GridIndex), twoknn.WithBlockCapacity(16),
			twoknn.WithShardPolicy(policy))
		if err != nil {
			t.Fatalf("NewShardHandler(%s, %d/%d): %v", name, s, shards, err)
		}
		out[s] = h
	}
	return out
}

// dialLoopback dials a dataset over in-process loopback transports (one
// replica per shard, no sockets).
func dialLoopback(t *testing.T, name string, pts []twoknn.Point, shards int, policy twoknn.ShardPolicy) *twoknn.RemoteRelation {
	t.Helper()
	handlers := shardHandlers(t, name, pts, shards, policy)
	tps := make([][]remote.ShardTransport, shards)
	for s, h := range handlers {
		tps[s] = []remote.ShardTransport{remote.NewLoopback(h.(*remote.ShardServer), "")}
	}
	rr, err := twoknn.DialRemoteTransports(context.Background(), name, tps, fastRemoteCfg())
	if err != nil {
		t.Fatalf("DialRemoteTransports(%s): %v", name, err)
	}
	return rr
}

// dialHTTP serves every shard on replicas httptest servers each (the same
// shard snapshot behind each replica URL) and dials the dataset over real
// HTTP. It returns the relation and the replica URLs, urls[s][r].
func dialHTTP(t *testing.T, name string, pts []twoknn.Point, shards, replicas int, cfg *twoknn.RemoteConfig) (*twoknn.RemoteRelation, [][]string) {
	t.Helper()
	handlers := shardHandlers(t, name, pts, shards, twoknn.HashSharding)
	urls := make([][]string, shards)
	for s, h := range handlers {
		for r := 0; r < replicas; r++ {
			srv := httptest.NewServer(h)
			t.Cleanup(srv.Close)
			urls[s] = append(urls[s], srv.URL)
		}
	}
	rr, err := twoknn.DialRemote(context.Background(), name, urls, cfg)
	if err != nil {
		t.Fatalf("DialRemote(%s): %v", name, err)
	}
	return rr, urls
}

// checkRemoteKNNSelect covers the select shape the shared battery only runs
// for *ShardedRelation operands.
func checkRemoteKNNSelect(t *testing.T, exp *oracleExpected, a *twoknn.RemoteRelation, opts ...twoknn.QueryOption) {
	t.Helper()
	got, err := a.KNNSelect(oracleFocal, 7, opts...)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "KNNSelect", exp.knnSelect, got, false)
	got, err = a.KNNSelect(oracleFocal, a.Len()+10, opts...)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "KNNSelect k>|E|", exp.knnSelectBig, got, false)
}

// TestRemoteDifferentialOracle holds every query shape byte-identical across
// the three execution layouts of the same points: in-process single
// relations (the expected side), remote over loopback transports, and
// remote over real HTTP — including a mixed-operand run (remote outer,
// local inner, sharded third).
func TestRemoteDifferentialOracle(t *testing.T) {
	ptsA, ptsB, ptsC := oracleDataset(t, "uniform")
	a := buildSingle(t, "A", ptsA, twoknn.GridIndex)
	b := buildSingle(t, "B", ptsB, twoknn.GridIndex)
	c := buildSingle(t, "C", ptsC, twoknn.GridIndex)
	exp := computeExpected(t, a, b, c)

	for _, policy := range []twoknn.ShardPolicy{twoknn.HashSharding, twoknn.SpatialSharding} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("loopback/%s/S=%d", policy, shards), func(t *testing.T) {
				ra := dialLoopback(t, "A", ptsA, shards, policy)
				rb := dialLoopback(t, "B", ptsB, shards, policy)
				rc := dialLoopback(t, "C", ptsC, shards, policy)
				checkRemoteKNNSelect(t, exp, ra)
				checkShardedBattery(t, exp, ra, rb, rc)
			})
		}
	}

	t.Run("http/S=3", func(t *testing.T) {
		ra, _ := dialHTTP(t, "A", ptsA, 3, 1, fastRemoteCfg())
		rb, _ := dialHTTP(t, "B", ptsB, 3, 1, fastRemoteCfg())
		rc, _ := dialHTTP(t, "C", ptsC, 3, 1, fastRemoteCfg())
		checkRemoteKNNSelect(t, exp, ra)
		checkShardedBattery(t, exp, ra, rb, rc)

		// The wire layer must account shard-side work: a battery's worth of
		// probes leaves non-zero folded counters on the coordinator side.
		_, total := ra.Snapshot()
		if total.PointsCompared == 0 || total.Neighborhoods == 0 {
			t.Fatalf("remote per-shard counters did not fold wire stats: %+v", total)
		}
	})

	t.Run("mixed-operands", func(t *testing.T) {
		ra := dialLoopback(t, "A", ptsA, 2, twoknn.HashSharding)
		sc := buildSharded(t, "C", ptsC, twoknn.GridIndex, 2, twoknn.HashSharding)
		checkShardedBattery(t, exp, ra, b, sc)
	})
}

// TestRemoteDifferentialUnderFaults drops every preferred replica of every
// shard: each probe's first attempt fails as a transient connection error
// and the envelope fails over to the second replica. The whole battery must
// stay byte-identical, and the envelope counters must show the failovers.
func TestRemoteDifferentialUnderFaults(t *testing.T) {
	ptsA, ptsB, ptsC := oracleDataset(t, "uniform")
	a := buildSingle(t, "A", ptsA, twoknn.GridIndex)
	b := buildSingle(t, "B", ptsB, twoknn.GridIndex)
	c := buildSingle(t, "C", ptsC, twoknn.GridIndex)
	exp := computeExpected(t, a, b, c)

	cfg := fastRemoteCfg()
	ra, urlsA := dialHTTP(t, "A", ptsA, 3, 2, cfg)
	rb, urlsB := dialHTTP(t, "B", ptsB, 3, 2, cfg)
	rc, urlsC := dialHTTP(t, "C", ptsC, 3, 2, cfg)

	dead := make(map[string]bool)
	for _, urls := range [][][]string{urlsA, urlsB, urlsC} {
		for _, reps := range urls {
			dead[reps[0]] = true
		}
	}
	fault.Arm(&fault.Injector{DropProbe: func(ep string) bool { return dead[ep] }})
	defer fault.Disarm()

	checkRemoteKNNSelect(t, exp, ra)
	checkShardedBattery(t, exp, ra, rb, rc)

	failovers := int64(0)
	for _, s := range ra.RemoteStats() {
		failovers += s.Failovers
	}
	if failovers == 0 {
		t.Fatal("expected replica failovers with every primary dropped, counted none")
	}
}

// TestRemoteResetFailover injects mid-query connection resets on shard 0's
// preferred replica (the shard serves the probe; the response never
// arrives): retries against the primary keep failing, failover to the
// second replica recovers the exact answer.
func TestRemoteResetFailover(t *testing.T) {
	ptsA, _, _ := oracleDataset(t, "uniform")
	a := buildSingle(t, "A", ptsA, twoknn.GridIndex)
	want, err := a.KNNSelect(oracleFocal, 9)
	if err != nil {
		t.Fatal(err)
	}

	cfg := fastRemoteCfg()
	cfg.MaxRetries = 1
	ra, urls := dialHTTP(t, "A", ptsA, 2, 2, cfg)
	fault.ResetEndpoint(urls[0][0])
	defer fault.Disarm()

	got, err := ra.KNNSelect(oracleFocal, 9)
	if err != nil {
		t.Fatalf("KNNSelect under connection resets: %v", err)
	}
	samePoints(t, "KNNSelect/reset-failover", want, got, false)

	st := ra.RemoteStats()[0]
	if st.Failovers == 0 {
		t.Fatalf("expected failover past the resetting primary, stats %+v", st)
	}
	if st.Endpoints[0].Retries == 0 {
		t.Fatalf("expected retries against the resetting primary, stats %+v", st.Endpoints[0])
	}
}

// TestRemoteSlowShardDeadline covers the slow-remote-shard scenarios: a
// stalled endpoint must burn its per-attempt budget — not the process — and
// surface as the typed taxonomy. With replicas it must not surface at all.
func TestRemoteSlowShardDeadline(t *testing.T) {
	ptsA, _, _ := oracleDataset(t, "uniform")

	t.Run("single-replica-exhausts", func(t *testing.T) {
		cfg := fastRemoteCfg()
		cfg.ProbeTimeout = 30 * time.Millisecond
		cfg.MaxRetries = twoknn.NoRetries
		ra, urls := dialHTTP(t, "A", ptsA, 1, 1, cfg)
		fault.SlowEndpoint(urls[0][0], 500*time.Millisecond)
		defer fault.Disarm()

		_, err := ra.KNNSelect(oracleFocal, 5)
		if !errors.Is(err, twoknn.ErrShardUnavailable) {
			t.Fatalf("want ErrShardUnavailable from an exhausted slow shard, got %v", err)
		}
	})

	t.Run("query-deadline-wins", func(t *testing.T) {
		cfg := fastRemoteCfg()
		ra, urls := dialHTTP(t, "A", ptsA, 1, 1, cfg)
		fault.SlowEndpoint(urls[0][0], 2*time.Second)
		defer fault.Disarm()

		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_, err := ra.KNNSelect(oracleFocal, 5, twoknn.WithContext(ctx))
		if !errors.Is(err, twoknn.ErrQueryCanceled) {
			t.Fatalf("want ErrQueryCanceled past the query deadline, got %v", err)
		}
	})

	t.Run("replica-recovers", func(t *testing.T) {
		a := buildSingle(t, "A", ptsA, twoknn.GridIndex)
		want, err := a.KNNSelect(oracleFocal, 9)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastRemoteCfg()
		cfg.ProbeTimeout = 50 * time.Millisecond
		cfg.MaxRetries = twoknn.NoRetries
		ra, urls := dialHTTP(t, "A", ptsA, 2, 2, cfg)
		fault.SlowEndpoint(urls[1][0], time.Second)
		defer fault.Disarm()

		got, err := ra.KNNSelect(oracleFocal, 9)
		if err != nil {
			t.Fatalf("KNNSelect with a slow primary and a healthy replica: %v", err)
		}
		samePoints(t, "KNNSelect/slow-primary", want, got, false)
	})
}

// TestRemoteBreakerSheds drives a dead primary past the breaker threshold:
// the breaker trips open, later queries skip the endpoint without paying
// its failure latency, answers stay exact through the replica throughout.
func TestRemoteBreakerSheds(t *testing.T) {
	ptsA, _, _ := oracleDataset(t, "uniform")
	a := buildSingle(t, "A", ptsA, twoknn.GridIndex)
	want, err := a.KNNSelect(oracleFocal, 9)
	if err != nil {
		t.Fatal(err)
	}

	cfg := fastRemoteCfg()
	cfg.MaxRetries = twoknn.NoRetries
	cfg.HedgeAfter = twoknn.NoHedging
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Hour // stays open for the test's lifetime
	ra, urls := dialHTTP(t, "A", ptsA, 1, 2, cfg)
	fault.DropEndpoint(urls[0][0])
	defer fault.Disarm()

	for i := 0; i < 6; i++ {
		got, err := ra.KNNSelect(oracleFocal, 9)
		if err != nil {
			t.Fatalf("KNNSelect %d with dead primary: %v", i, err)
		}
		samePoints(t, "KNNSelect/breaker", want, got, false)
	}

	ep := ra.RemoteStats()[0].Endpoints[0]
	if ep.Breaker != "open" {
		t.Fatalf("primary breaker state = %q, want open (stats %+v)", ep.Breaker, ep)
	}
	if ep.BreakerTrips == 0 {
		t.Fatalf("expected a breaker trip on the dead primary, stats %+v", ep)
	}
	// Once tripped, failover demotes the endpoint behind the healthy
	// replica: the 2 dial calls plus BreakerThreshold failed probes are the
	// only attempts it ever receives, however many queries follow.
	if want := int64(2 + cfg.BreakerThreshold); ep.Attempts != want {
		t.Fatalf("dead primary received %d attempts, want %d (breaker must shed the rest): %+v",
			ep.Attempts, want, ep)
	}
}

// TestRemotePartialResults covers the graceful-degradation contract: with a
// whole shard down, the default is fail-closed (typed ErrShardUnavailable,
// no results), and WithPartialResults returns the exact answer over the
// reachable shards together with a *PartialResultError naming the missing
// one.
func TestRemotePartialResults(t *testing.T) {
	ptsA, _, _ := oracleDataset(t, "uniform")

	// The expected degraded answer: the exact evaluation over only the
	// points the reachable shard (shard 1 of a 2-way hash partition) holds.
	stores := shard.Partition(ptsA, 2, shard.PolicyHash)
	reachable := make([]twoknn.Point, 0, stores[1].Len())
	for i := 0; i < stores[1].Len(); i++ {
		reachable = append(reachable, stores[1].At(i))
	}
	deg := buildSingle(t, "A1", reachable, twoknn.GridIndex)
	wantDeg, err := deg.KNNSelect(oracleFocal, 9)
	if err != nil {
		t.Fatal(err)
	}

	cfg := fastRemoteCfg()
	cfg.MaxRetries = twoknn.NoRetries
	cfg.HedgeAfter = twoknn.NoHedging
	ra, urls := dialHTTP(t, "A", ptsA, 2, 1, cfg)
	fault.DropEndpoint(urls[0][0]) // shard 0's only replica: the shard is gone
	defer fault.Disarm()

	t.Run("fail-closed-default", func(t *testing.T) {
		pts, err := ra.KNNSelect(oracleFocal, 9)
		if !errors.Is(err, twoknn.ErrShardUnavailable) {
			t.Fatalf("want ErrShardUnavailable fail-closed, got (%v, %v)", pts, err)
		}
		if pts != nil {
			t.Fatalf("fail-closed query leaked partial results: %v", pts)
		}
	})

	t.Run("partial-opt-in", func(t *testing.T) {
		pts, err := ra.KNNSelect(oracleFocal, 9, twoknn.WithPartialResults())
		var pre *twoknn.PartialResultError
		if !errors.As(err, &pre) {
			t.Fatalf("want *PartialResultError, got %v", err)
		}
		if !errors.Is(err, twoknn.ErrShardUnavailable) {
			t.Fatalf("PartialResultError must wrap ErrShardUnavailable, got %v", err)
		}
		if len(pre.Missing) != 1 || pre.Missing[0] != 0 {
			t.Fatalf("Missing = %v, want [0]", pre.Missing)
		}
		if pre.Errs[0] == nil {
			t.Fatalf("Errs lacks shard 0's cause: %+v", pre.Errs)
		}
		samePoints(t, "KNNSelect/partial", wantDeg, pts, false)
	})

	t.Run("partial-join", func(t *testing.T) {
		wantJoin, err := twoknn.KNNJoin(deg, deg, 3)
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := twoknn.KNNJoin(ra, ra, 3, twoknn.WithPartialResults())
		var pre *twoknn.PartialResultError
		if !errors.As(err, &pre) {
			t.Fatalf("want *PartialResultError, got %v", err)
		}
		samePairs(t, "KNNJoin/partial", wantJoin, pairs)
	})

	t.Run("healthy-shards-mean-no-error", func(t *testing.T) {
		fault.Disarm()
		defer fault.DropEndpoint(urls[0][0])
		full := buildSingle(t, "A", ptsA, twoknn.GridIndex)
		want, err := full.KNNSelect(oracleFocal, 9)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ra.KNNSelect(oracleFocal, 9, twoknn.WithPartialResults())
		if err != nil {
			t.Fatalf("WithPartialResults over healthy shards must return err == nil, got %v", err)
		}
		samePoints(t, "KNNSelect/partial-healthy", want, got, false)
	})

	t.Run("cancellation-wins", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := ra.KNNSelect(oracleFocal, 9, twoknn.WithPartialResults(), twoknn.WithContext(ctx))
		if !errors.Is(err, twoknn.ErrQueryCanceled) {
			t.Fatalf("a dead context must win over partial mode, got %v", err)
		}
	})
}

// TestRemoteCorruptResponseRecovers injects response corruption on the
// primary: validation rejects the payload as a transient error, the retry
// (or replica) recovers, and the answer never silently degrades.
func TestRemoteCorruptResponseRecovers(t *testing.T) {
	ptsA, _, _ := oracleDataset(t, "uniform")
	a := buildSingle(t, "A", ptsA, twoknn.GridIndex)
	want, err := a.KNNSelect(oracleFocal, 9)
	if err != nil {
		t.Fatal(err)
	}

	cfg := fastRemoteCfg()
	ra, urls := dialHTTP(t, "A", ptsA, 2, 2, cfg)
	fault.Arm(&fault.Injector{CorruptResponse: func(ep string) bool { return ep == urls[1][0] }})
	defer fault.Disarm()

	got, err := ra.KNNSelect(oracleFocal, 9)
	if err != nil {
		t.Fatalf("KNNSelect under response corruption: %v", err)
	}
	samePoints(t, "KNNSelect/corrupt-recovered", want, got, false)

	// A join against the remote inner goes out as batch probes, whose
	// corrupted responses must fail over the same way.
	wantJoin, err := twoknn.KNNJoin(a, a, 5)
	if err != nil {
		t.Fatal(err)
	}
	gotJoin, err := twoknn.KNNJoin(a, ra, 5)
	if err != nil {
		t.Fatalf("KNNJoin under batch response corruption: %v", err)
	}
	samePairs(t, "KNNJoin/corrupt-recovered", wantJoin, gotJoin)
}

// TestRemoteRelationSurface covers the dial-time metadata and render-table
// feeds of the public type.
func TestRemoteRelationSurface(t *testing.T) {
	ptsA, _, _ := oracleDataset(t, "uniform")
	ra, _ := dialHTTP(t, "A", ptsA, 3, 1, fastRemoteCfg())

	if ra.Len() != len(ptsA) {
		t.Fatalf("Len = %d, want %d", ra.Len(), len(ptsA))
	}
	if ra.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", ra.NumShards())
	}
	if got := ra.IndexKind(); got != twoknn.GridIndex {
		t.Fatalf("IndexKind = %v, want grid", got)
	}
	if ra.Epoch() == 0 {
		t.Fatal("Epoch must be non-zero")
	}
	lens := ra.ShardLens()
	sum := 0
	for _, n := range lens {
		sum += n
	}
	if sum != len(ptsA) {
		t.Fatalf("ShardLens sum = %d, want %d", sum, len(ptsA))
	}

	pts, ids, err := ra.FetchPoints()
	if err != nil {
		t.Fatalf("FetchPoints: %v", err)
	}
	if len(pts) != len(ptsA) || len(ids) != len(ptsA) {
		t.Fatalf("FetchPoints returned %d pts / %d ids, want %d", len(pts), len(ids), len(ptsA))
	}
	seen := make(map[int32]twoknn.Point, len(ids))
	for i, id := range ids {
		if _, dup := seen[id]; dup {
			t.Fatalf("stable ID %d appears twice", id)
		}
		seen[id] = pts[i]
	}
	for i, p := range ptsA {
		if got, ok := seen[int32(i)]; !ok || got != p {
			t.Fatalf("stable ID %d: got %v ok=%v, want %v", i, got, ok, p)
		}
	}
}

// TestDialRemoteValidates covers dial-time fail-fast: empty layouts and
// unreachable endpoints are errors, not latent wrong answers.
func TestDialRemoteValidates(t *testing.T) {
	if _, err := twoknn.DialRemote(context.Background(), "x", nil, nil); err == nil {
		t.Fatal("DialRemote with no shards must fail")
	}
	if _, err := twoknn.DialRemote(context.Background(), "x", [][]string{{}}, nil); err == nil {
		t.Fatal("DialRemote with an empty replica list must fail")
	}
	cfg := fastRemoteCfg()
	cfg.ProbeTimeout = 100 * time.Millisecond
	cfg.MaxRetries = twoknn.NoRetries
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := twoknn.DialRemote(ctx, "x", [][]string{{"http://127.0.0.1:1"}}, cfg)
	if !errors.Is(err, twoknn.ErrShardUnavailable) {
		t.Fatalf("DialRemote against a dead endpoint: want ErrShardUnavailable, got %v", err)
	}
}

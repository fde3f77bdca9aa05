package server

import (
	"context"
	"testing"

	twoknn "repro"
)

// TestBatchCacheSkipsUnresolvedRows pins the batch cache's memoization rule:
// rendered rows are cached per focal, except when a row did not resolve to
// a stable ID (ID -1), because a later render table may resolve it.
func TestBatchCacheSkipsUnresolvedRows(t *testing.T) {
	pts := []twoknn.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 5, Y: 5}}
	rel, err := twoknn.NewRelation("pts", pts)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.Register("pts", rel); err != nil {
		t.Fatal(err)
	}
	d := s.lookup("pts")
	req := &KNNSelectBatchRequest{Dataset: "pts", Focals: []PointArg{{X: 0.2, Y: 0.1}}, K: 3}

	// A current-epoch table that resolves nothing: every row renders as -1.
	d.table.Store(newRenderTable(rel.Epoch(), nil, nil))
	for i := 0; i < 2; i++ {
		resp, err := s.evalKNNSelectBatch(context.Background(), d, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Batches[0]) != 3 || resp.Batches[0][0].ID != -1 {
			t.Fatalf("request %d: rows %v, want 3 unresolved rows", i, resp.Batches[0])
		}
		if resp.Stats.CacheHits != 0 || resp.Stats.CacheMisses != 1 {
			t.Fatalf("request %d: hits=%d misses=%d, unresolved rows must not be memoized",
				i, resp.Stats.CacheHits, resp.Stats.CacheMisses)
		}
	}

	// With a resolving table the rows are memoized and served from the cache.
	d.table.Store(nil)
	first, err := s.evalKNNSelectBatch(context.Background(), d, req)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.evalKNNSelectBatch(context.Background(), d, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.CacheHits != 1 || first.Batches[0][0].ID < 0 || again.Batches[0][0] != first.Batches[0][0] {
		t.Fatalf("resolved rows: first %v, again %v (hits=%d)", first.Batches[0], again.Batches[0], again.Stats.CacheHits)
	}
}

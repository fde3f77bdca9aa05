package shard

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/index/grid"
	"repro/internal/testutil"
)

// Steady-state allocation regression for the sharded probe path: once a
// worker holds its probe, every merged neighborhood — per-shard locality
// searches (through the batched kernel scans), the precomputed candidate
// distances and the k-way merge — must be allocation-free, on both the
// small-block and the batched-span (blocks above kernel.BatchGrain)
// configurations.
func TestProbeNeighborhoodZeroAllocsSteadyState(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1000, 1000)
	pts := testutil.UniformPoints(6000, bounds, 45)
	queries := testutil.UniformPoints(128, bounds, 46)

	for _, tc := range []struct {
		name     string
		capacity int
	}{
		{name: "cells=16", capacity: 16},
		{name: "cells=128-batched", capacity: 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(st *geom.PointStore) (index.Index, error) {
				if st.Len() == 0 {
					return grid.NewFromStore(st, grid.Options{TargetPerCell: tc.capacity, Bounds: bounds})
				}
				return grid.NewFromStore(st, grid.Options{TargetPerCell: tc.capacity})
			}
			for _, policy := range []Policy{PolicyHash, PolicySpatial} {
				rel, err := New(pts, 3, policy, 0, build)
				if err != nil {
					t.Fatalf("building sharded relation: %v", err)
				}
				pr := acquire(nil, rel.Group())
				for _, q := range queries {
					pr.neighborhood(q, 16)
				}
				i := 0
				avg := testing.AllocsPerRun(200, func() {
					pr.neighborhood(queries[i%len(queries)], 16)
					i++
				})
				pr.release(nil)
				if avg != 0 {
					t.Errorf("policy %v: probe neighborhood allocates %v per call in steady state, want 0", policy, avg)
				}
			}
		})
	}
}

// Steady-state allocation regression for the batched rounds gather: over an
// in-process 3-shard group, the per-focal order, limit and span scratch, the
// per-shard result arenas and batch drivers, and the merged arena all live
// in the probe, so repeated batches allocate nothing.
func TestProbeNeighborhoodsZeroAllocsSteadyState(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1000, 1000)
	pts := testutil.UniformPoints(6000, bounds, 47)
	queries := testutil.UniformPoints(256, bounds, 48)
	build := func(st *geom.PointStore) (index.Index, error) {
		if st.Len() == 0 {
			return grid.NewFromStore(st, grid.Options{TargetPerCell: 16, Bounds: bounds})
		}
		return grid.NewFromStore(st, grid.Options{TargetPerCell: 16})
	}
	thresholds := make([]float64, 32)
	for i := range thresholds {
		thresholds[i] = float64(i * 400)
	}
	for _, policy := range []Policy{PolicyHash, PolicySpatial} {
		rel, err := New(pts, 3, policy, 0, build)
		if err != nil {
			t.Fatalf("building sharded relation: %v", err)
		}
		pr := acquire(nil, rel.Group())
		batchAt := func(i int) []geom.Point {
			lo := (i * 32) % len(queries)
			return queries[lo : lo+32]
		}
		for i := 0; i < len(queries)/32; i++ {
			pr.neighborhoods(batchAt(i), 16, nil)
			pr.neighborhoods(batchAt(i), 16, thresholds)
		}
		i := 0
		avg := testing.AllocsPerRun(100, func() {
			pr.neighborhoods(batchAt(i), 16, nil)
			pr.neighborhoods(batchAt(i), 16, thresholds)
			i++
		})
		pr.release(nil)
		if avg != 0 {
			t.Errorf("policy %v: batched gather allocates %v per call in steady state, want 0", policy, avg)
		}
	}
}

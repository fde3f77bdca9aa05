package main

import (
	"encoding/json"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// planFile is plan.json without its prose.
type planFile struct {
	Shapes struct {
		SelectK        int     `json:"select_k"`
		TwoK           int     `json:"two_k"`
		BatchSize      int     `json:"batch_size"`
		BatchLargeSize int     `json:"batch_large_size"`
		JoinK          int     `json:"join_k"`
		JoinKSel       int     `json:"join_k_sel"`
		WriteSize      int     `json:"write_size"`
		Hotspots       int     `json:"hotspots"`
		ZipfS          float64 `json:"zipf_s"`
	} `json:"shapes"`
	Datasets map[string]struct {
		Spec   string `json:"spec"`
		Points int    `json:"points"`
	} `json:"datasets"`
	Workloads map[string]struct {
		Loop     string   `json:"loop"`
		Remote   bool     `json:"remote"`
		Datasets []string `json:"datasets"`
		SelectOn string   `json:"select_on"`
		Join     struct {
			Outer string `json:"outer"`
			Inner string `json:"inner"`
		} `json:"join"`
		Reads struct {
			RateRPS float64        `json:"rate_rps"`
			Cycle   map[string]int `json:"cycle"`
		} `json:"reads"`
		Writes struct {
			RateRPS float64 `json:"rate_rps"`
			Every   int     `json:"every"`
			Target  string  `json:"target"`
		} `json:"writes"`
	} `json:"workloads"`
	Predictions []struct {
		Layer    string              `json:"layer"`
		Moves    map[string][]string `json:"moves"`
		NoChange map[string][]string `json:"no_change"`
	} `json:"predictions"`
}

// TestPlanMatchesCode holds plan.json to the code and BENCHMARK.json: the
// shapes, datasets and workload parameters are the ones the benchmark runs,
// and every prediction names a per-layer metric and the end-to-end metrics
// and workloads it should move.
func TestPlanMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	b, err := os.ReadFile("plan.json")
	if err != nil {
		t.Fatal(err)
	}
	var plan planFile
	if err := json.Unmarshal(b, &plan); err != nil {
		t.Fatal(err)
	}
	sh := plan.Shapes
	if got, want := []float64{float64(sh.SelectK), float64(sh.TwoK), float64(sh.BatchSize), float64(sh.BatchLargeSize),
		float64(sh.JoinK), float64(sh.JoinKSel), float64(sh.WriteSize), float64(sh.Hotspots), sh.ZipfS},
		[]float64{selectK, twoK, batchSize, batchLargeSize, joinK, joinKSel, writeSize, hotspots, zipfS}; !slices.Equal(got, want) {
		t.Errorf("plan.json shapes %v, code runs %v", got, want)
	}
	for _, w := range workloads {
		p, ok := plan.Workloads[w.name]
		if !ok {
			t.Errorf("plan.json has no workload %s", w.name)
			continue
		}
		loop := "open"
		if w.closed {
			loop = "closed"
		}
		if p.Loop != loop || p.Remote != w.remote || p.Reads.RateRPS != w.rate || p.Writes.RateRPS != w.writeRate {
			t.Errorf("plan.json %s: loop %s remote %t at %v reads/s and %v writes/s; code runs loop %s remote %t at %v and %v",
				w.name, p.Loop, p.Remote, p.Reads.RateRPS, p.Writes.RateRPS, loop, w.remote, w.rate, w.writeRate)
		}
		if p.Writes.Every != w.writeEvery || p.Writes.Target != w.writeTo || p.SelectOn != w.sel ||
			p.Join.Outer != w.outer || p.Join.Inner != w.inner {
			t.Errorf("plan.json %s: write every %d to %s, selects on %s, joins %s x %s; code: %d, %s, %s, %s x %s",
				w.name, p.Writes.Every, p.Writes.Target, p.SelectOn, p.Join.Outer, p.Join.Inner,
				w.writeEvery, w.writeTo, w.sel, w.outer, w.inner)
		}
		cycle := map[string]int{}
		for _, k := range w.reads {
			cycle[k]++
		}
		if !maps.Equal(p.Reads.Cycle, cycle) {
			t.Errorf("plan.json %s: read cycle %v, code runs %v", w.name, p.Reads.Cycle, cycle)
		}
		if names := sortedKeys(w.files); !slices.Equal(p.Datasets, names) {
			t.Errorf("plan.json %s: datasets %v, code registers %v", w.name, p.Datasets, names)
		}
		for name, d := range w.files {
			pd := plan.Datasets[name]
			n, err := d.points()
			if err != nil {
				t.Fatal(err)
			}
			if pd.Spec != d.spec.String() || pd.Points != n {
				t.Errorf("plan.json dataset %s: %s with %d points, code writes %s with %d", name, pd.Spec, pd.Points, d.spec, n)
			}
		}
	}
	e2e := map[string]bool{"failed": true} // the result line's failure count
	for _, m := range f.EndToEnd {
		e2e[m.Name] = true
	}
	layer := map[string]bool{}
	for _, m := range f.PerLayer {
		layer[m.Name] = true
	}
	predicted := map[string]bool{}
	for _, p := range plan.Predictions {
		if !layer[p.Layer] {
			t.Errorf("plan.json predicts for %s, which is no per-layer metric", p.Layer)
		}
		predicted[p.Layer] = true
		for _, moves := range []map[string][]string{p.Moves, p.NoChange} {
			for metric, wls := range moves {
				if !e2e[metric] {
					t.Errorf("plan.json: %s moves %s, which is no end-to-end metric", p.Layer, metric)
				}
				for _, wl := range wls {
					if _, err := workloadNamed(wl); err != nil {
						t.Errorf("plan.json: %s: %v", p.Layer, err)
					}
				}
			}
		}
	}
	for name := range layer {
		if !predicted[name] {
			t.Errorf("plan.json has no prediction for %s", name)
		}
	}
}

// buildServers builds knnserve and knnshard from the enclosing repository.
func buildServers(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, cmd := range []string{"knnserve", "knnshard"} {
		build := exec.Command("go", "build", "-o", filepath.Join(dir, cmd), "./cmd/"+cmd)
		build.Dir = ".."
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	return dir
}

// smoke is a one-second run with a single set-up.
func smoke(binDir, workDir, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 1, trace: trace, binDir: binDir, workDir: workDir, setupReps: 1}
}

// TestSmokeEveryMetric runs every workload briefly, untraced and traced, and
// checks that each run is correct and reports exactly the metrics
// BENCHMARK.json names, with their units.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts served processes")
	}
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(f.Workloads), len(workloads))
	}
	binDir, workDir := buildServers(t), t.TempDir()
	for _, wl := range f.Workloads {
		if _, err := workloadNamed(wl.Name); err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			res, rec, err := run(smoke(binDir, workDir, wl.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", wl.Name, trace, err)
			}
			if !trace && wl.Name != "read-write" {
				// The answer check samples every stage of the run, not
				// only the warm-up.
				w, _ := workloadNamed(wl.Name)
				stages := []string{"warm-up", "timed", "saturation"}
				if w.closed {
					stages = stages[:2]
				}
				perStage, _ := rec.Info["sampled_per_stage"].(map[string]int)
				for _, st := range stages {
					if perStage[st] == 0 {
						t.Errorf("%s: no answers sampled in stage %s (%v)", wl.Name, st, perStage)
					}
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := f.EndToEnd
			if trace {
				want = f.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%t: metric %s unit %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestInjectedWrongAnswerCounts corrupts one sampled response and expects
// the run to count it as failed and to return an error.
func TestInjectedWrongAnswerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("starts served processes")
	}
	binDir, workDir := buildServers(t), t.TempDir()
	for _, wl := range []string{"select-mix", "read-write"} {
		c := smoke(binDir, workDir, wl, false)
		c.inject = true
		res, _, err := run(c)
		if err == nil {
			t.Fatalf("%s: run with a corrupted answer succeeded", wl)
		}
		if res == nil || res.Correct || res.Failed < 1 {
			t.Fatalf("%s: corrupted answer not counted: %+v", wl, res)
		}
	}
}

package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"repro/internal/kernel"
	"repro/internal/stats"
)

// JSONReport is the machine-readable form of a benchmark session, written by
// `knnbench -json <path>`. The repo root keeps one such file per PR
// (BENCH_PR1.json, ...) as the performance trajectory of the project; the
// Micro section carries hot-path micro-benchmark numbers (go test -bench)
// recorded alongside the experiment sweeps.
type JSONReport struct {
	Schema      string           `json:"schema"`
	Scale       string           `json:"scale"`
	Host        JSONHost         `json:"host"`
	Experiments []JSONExperiment `json:"experiments"`
	Micro       json.RawMessage  `json:"micro,omitempty"`
}

// JSONReportSchema identifies the current report layout.
const JSONReportSchema = "knnbench/v1"

// JSONHost records the hardware/dispatch context the numbers were measured
// under: vectorized-kernel results are only comparable across hosts with
// the same dispatched kernel and CPU feature set.
type JSONHost struct {
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	NumCPU       int    `json:"num_cpu"`
	CPUFeatures  string `json:"cpu_features,omitempty"`
	ActiveKernel string `json:"active_kernel"`
}

// JSONExperiment is one figure or ablation sweep.
type JSONExperiment struct {
	ID     string    `json:"id"`
	Title  string    `json:"title"`
	XLabel string    `json:"x_label"`
	Expect string    `json:"paper_expectation"`
	Rows   []JSONRow `json:"rows"`
}

// JSONRow is one x-axis position of a sweep.
type JSONRow struct {
	X     string     `json:"x"`
	Plans []JSONPlan `json:"plans"`
}

// JSONPlan is one evaluated plan at one sweep position.
type JSONPlan struct {
	Name    string          `json:"name"`
	NsPerOp int64           `json:"ns_per_op"`
	Result  int             `json:"result_cardinality"`
	Stats   *stats.Counters `json:"stats,omitempty"`

	// RoundTripsPerQuery is the remote envelope attempts per query, for
	// plans over remote operands.
	RoundTripsPerQuery *float64 `json:"round_trips_per_query,omitempty"`
}

// NewJSONReport converts measured results into the machine-readable report.
func NewJSONReport(scale Scale, results []*Result) *JSONReport {
	rep := &JSONReport{
		Schema: JSONReportSchema,
		Scale:  string(scale),
		Host: JSONHost{
			GOOS:         runtime.GOOS,
			GOARCH:       runtime.GOARCH,
			NumCPU:       runtime.NumCPU(),
			CPUFeatures:  kernel.CPUFeatures(),
			ActiveKernel: kernel.Active(),
		},
	}
	for _, res := range results {
		je := JSONExperiment{
			ID:     res.Experiment.ID,
			Title:  res.Experiment.Title,
			XLabel: res.Experiment.XLabel,
			Expect: res.Experiment.Expect,
		}
		names := res.PlanNames()
		for _, row := range res.Rows {
			jr := JSONRow{X: row.X}
			for _, name := range names {
				jp := JSONPlan{
					Name:    name,
					NsPerOp: row.Times[name].Nanoseconds(),
					Result:  row.Counts[name],
					Stats:   row.Stats[name],
				}
				if rt, ok := row.RoundTrips[name]; ok {
					jp.RoundTripsPerQuery = &rt
				}
				jr.Plans = append(jr.Plans, jp)
			}
			je.Rows = append(je.Rows, jr)
		}
		rep.Experiments = append(rep.Experiments, je)
	}
	return rep
}

// WriteFile writes the report as indented JSON to path.
func (r *JSONReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshaling JSON report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: writing JSON report: %w", err)
	}
	return nil
}

package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// Result holds the measured series of one experiment.
type Result struct {
	Experiment Experiment
	Scale      Scale
	Rows       []ResultRow
}

// ResultRow is one x-axis position with per-plan measurements.
type ResultRow struct {
	X string

	// Times maps plan name to the (best-of-reps) execution time.
	Times map[string]time.Duration

	// Counts maps plan name to the result cardinality; the runner verifies
	// all plans of a row agree.
	Counts map[string]int

	// Stats maps plan name to the operation counters of the last run.
	Stats map[string]*stats.Counters

	// RoundTrips maps the name of a plan with remote operands to the
	// envelope attempts per query of its last run.
	RoundTrips map[string]float64
}

// Run executes an experiment at the given scale and returns the measured
// series. Fast plans are re-run (up to five times, while under 200ms) and
// the minimum is reported; slow plans run once. Run returns an error when
// two plans of one case disagree on the result cardinality — the
// correctness guarantee every figure rests on.
func Run(e Experiment, scale Scale) (*Result, error) {
	res := &Result{Experiment: e, Scale: scale}
	for _, c := range e.Cases(scale) {
		row := ResultRow{
			X:      c.X,
			Times:  make(map[string]time.Duration, len(c.Plans)),
			Counts: make(map[string]int, len(c.Plans)),
			Stats:  make(map[string]*stats.Counters, len(c.Plans)),
		}
		for _, p := range c.Plans {
			best := time.Duration(0)
			count := 0
			var ctr *stats.Counters
			var trips int64
			budget := time.Second
			for rep := 0; rep < 7; rep++ {
				ctr = &stats.Counters{}
				var trips0 int64
				if p.RoundTrips != nil {
					trips0 = p.RoundTrips()
				}
				start := time.Now()
				count = p.Run(ctr)
				elapsed := time.Since(start)
				if p.RoundTrips != nil {
					trips = p.RoundTrips() - trips0
				}
				if rep == 0 || elapsed < best {
					best = elapsed
				}
				budget -= elapsed
				if budget <= 0 {
					break
				}
			}
			row.Times[p.Name] = best
			row.Counts[p.Name] = count
			row.Stats[p.Name] = ctr
			if p.RoundTrips != nil {
				if row.RoundTrips == nil {
					row.RoundTrips = make(map[string]float64)
				}
				row.RoundTrips[p.Name] = float64(trips) / float64(max(1, p.Queries))
			}
		}
		if err := checkAgreement(e.ID, c.X, row.Counts); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func checkAgreement(id, x string, counts map[string]int) error {
	var names []string
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for i := 1; i < len(names); i++ {
		if counts[names[i]] != counts[names[0]] {
			return fmt.Errorf("bench: %s x=%s: plans disagree on result cardinality: %s=%d, %s=%d",
				id, x, names[0], counts[names[0]], names[i], counts[names[i]])
		}
	}
	return nil
}

// PlanNames returns the plan names of the result in first-case order.
func (r *Result) PlanNames() []string {
	if len(r.Rows) == 0 {
		return nil
	}
	var names []string
	for name := range r.Rows[0].Times {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Format renders the series as an aligned text table in the paper's layout:
// one row per sweep value, one timing column per plan, plus the ratio
// between the last and first plan column (the figure's headline gap).
func (r *Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s (%s scale) ===\n", r.Experiment.ID, r.Scale)
	fmt.Fprintf(&sb, "%s\n", r.Experiment.Title)
	fmt.Fprintf(&sb, "paper: %s\n\n", r.Experiment.Expect)

	names := r.PlanNames()
	header := append([]string{r.Experiment.XLabel}, names...)
	header = append(header, "slow/fast", "|result|")

	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	var cells [][]string
	for _, row := range r.Rows {
		line := []string{row.X}
		slowest, fastest := time.Duration(0), time.Duration(0)
		for i, n := range names {
			d := row.Times[n]
			line = append(line, formatDuration(d))
			if i == 0 || d > slowest {
				slowest = d
			}
			if i == 0 || d < fastest {
				fastest = d
			}
		}
		line = append(line, formatRatio(slowest, fastest))
		line = append(line, fmt.Sprintf("%d", row.Counts[names[0]]))
		for i, cell := range line {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
		cells = append(cells, line)
	}

	writeLine := func(line []string) {
		for i, cell := range line {
			fmt.Fprintf(&sb, "%-*s", widths[i]+2, cell)
		}
		sb.WriteString("\n")
	}
	writeLine(header)
	for _, line := range cells {
		writeLine(line)
	}
	for _, row := range r.Rows {
		if len(row.RoundTrips) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "round trips/query at %s=%s:", r.Experiment.XLabel, row.X)
		for _, n := range names {
			if rt, ok := row.RoundTrips[n]; ok {
				fmt.Fprintf(&sb, " %s=%.1f", n, rt)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// formatDuration prints a duration in milliseconds with adaptive precision.
func formatDuration(d time.Duration) string {
	ms := float64(d.Microseconds()) / 1000
	switch {
	case ms >= 100:
		return fmt.Sprintf("%.0fms", ms)
	case ms >= 1:
		return fmt.Sprintf("%.2fms", ms)
	default:
		return fmt.Sprintf("%.3fms", ms)
	}
}

// formatRatio prints a/b as a "x" multiple (how many times slower the
// slowest plan of a row is than the fastest).
func formatRatio(a, b time.Duration) string {
	if b <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

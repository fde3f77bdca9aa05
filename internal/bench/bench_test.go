package bench

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestParseScale(t *testing.T) {
	if s, err := ParseScale("ci"); err != nil || s != ScaleCI {
		t.Errorf("ParseScale(ci) = %v, %v", s, err)
	}
	if s, err := ParseScale("paper"); err != nil || s != ScalePaper {
		t.Errorf("ParseScale(paper) = %v, %v", s, err)
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Errorf("unknown scale must error")
	}
}

func TestByID(t *testing.T) {
	for _, want := range []string{"fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "fig25", "fig26"} {
		e, ok := ByID(want)
		if !ok || e.ID != want {
			t.Errorf("ByID(%s) = %v, %v", want, e.ID, ok)
		}
		if e.Title == "" || e.XLabel == "" || e.Expect == "" || e.Cases == nil {
			t.Errorf("%s: incomplete experiment definition", want)
		}
	}
	if _, ok := ByID("fig99"); ok {
		t.Errorf("unknown figure must not resolve")
	}
}

func TestWorkloadsDeterministicAndCached(t *testing.T) {
	defer ResetCache()
	a := BerlinMODPoints("t", 500)
	b := BerlinMODPoints("t", 500)
	if &a[0] != &b[0] {
		t.Errorf("cache must return the same slice")
	}
	c := BerlinMODPoints("other", 500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different roles must decorrelate datasets")
	}

	u := UniformPoints("t", 300)
	if len(u) != 300 {
		t.Errorf("uniform size = %d", len(u))
	}
	cl := ClusteredPoints("t", 2, 100, 300)
	if len(cl) != 200 {
		t.Errorf("clustered size = %d", len(cl))
	}
	for _, p := range cl {
		if !Bounds.Contains(p) {
			t.Fatalf("clustered point %v outside bounds", p)
		}
	}

	r1 := Relation("t/rel", u)
	r2 := Relation("t/rel", u)
	if r1 != r2 {
		t.Errorf("relation cache must return the same relation")
	}
	if r1.Len() != 300 {
		t.Errorf("relation Len = %d", r1.Len())
	}
}

// TestRunTinyExperiment drives the runner and reporter end to end on a
// synthetic two-plan experiment.
func TestRunTinyExperiment(t *testing.T) {
	exp := Experiment{
		ID:     "tiny",
		Title:  "synthetic",
		XLabel: "n",
		Expect: "plans agree",
		Cases: func(scale Scale) []Case {
			return []Case{{
				X: "1",
				Plans: []Plan{
					{Name: "alpha", Run: func(c *stats.Counters) int { c.AddBlocksScanned(1); return 7 }},
					{Name: "beta", Run: func(c *stats.Counters) int { return 7 }},
				},
			}}
		},
	}
	res, err := Run(exp, ScaleCI)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].Counts["alpha"] != 7 || res.Rows[0].Counts["beta"] != 7 {
		t.Fatalf("counts wrong: %v", res.Rows[0].Counts)
	}
	if res.Rows[0].Stats["alpha"].BlocksScanned != 1 {
		t.Fatalf("stats not captured")
	}
	out := res.Format()
	for _, want := range []string{"tiny", "alpha", "beta", "slow/fast", "|result|", "plans agree"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	if names := res.PlanNames(); len(names) != 2 || names[0] != "alpha" {
		t.Errorf("PlanNames = %v", names)
	}
}

// TestRunDetectsDisagreement ensures the runner fails when plans return
// different cardinalities.
func TestRunDetectsDisagreement(t *testing.T) {
	exp := Experiment{
		ID: "broken", Title: "t", XLabel: "x", Expect: "e",
		Cases: func(scale Scale) []Case {
			return []Case{{
				X: "1",
				Plans: []Plan{
					{Name: "a", Run: func(c *stats.Counters) int { return 1 }},
					{Name: "b", Run: func(c *stats.Counters) int { return 2 }},
				},
			}}
		},
	}
	if _, err := Run(exp, ScaleCI); err == nil {
		t.Fatalf("disagreeing plans must fail the run")
	}
}

// TestFig26SmallSlice runs the smallest case of a real experiment end to
// end, checking plan agreement on real data (full sweeps are exercised by
// the benchmarks and cmd/knnbench).
func TestFig26SmallSlice(t *testing.T) {
	if testing.Short() {
		t.Skip("real dataset generation in -short mode")
	}
	defer ResetCache()
	e, _ := ByID("fig26")
	cases := e.Cases(ScaleCI)
	if len(cases) != 8 {
		t.Fatalf("fig26 cases = %d, want 8", len(cases))
	}
	c := cases[0]
	var ctr stats.Counters
	n1 := c.Plans[0].Run(&ctr)
	n2 := c.Plans[1].Run(&ctr)
	if n1 != n2 {
		t.Fatalf("fig26 plans disagree: %d vs %d", n1, n2)
	}
}

// TestFig19BlockMarkingPrunes runs the smallest case of Figure 19 on its
// BerlinMOD workload: Block-Marking must agree with the conceptual plan and
// its contour preprocessing must still prune outer blocks.
func TestFig19BlockMarkingPrunes(t *testing.T) {
	if testing.Short() {
		t.Skip("real dataset generation in -short mode")
	}
	defer ResetCache()
	e, _ := ByID("fig19")
	c := e.Cases(ScaleCI)[0]
	var conceptual, bm stats.Counters
	n1 := c.Plans[0].Run(&conceptual)
	n2 := c.Plans[1].Run(&bm)
	if n1 != n2 {
		t.Fatalf("fig19 plans disagree: %d vs %d", n1, n2)
	}
	if bm.BlocksPruned == 0 {
		t.Fatalf("Block-Marking pruned no blocks on the fig19 workload; counters: %v", &bm)
	}
}

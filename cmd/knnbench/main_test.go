package main

import (
	"strings"
	"testing"
)

func TestSelectExperimentsAllFigures(t *testing.T) {
	exps, err := selectExperiments("", false, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 8 {
		t.Fatalf("default selection has %d experiments, want the 8 figures", len(exps))
	}
}

func TestSelectExperimentsAblations(t *testing.T) {
	exps, err := selectExperiments("", true, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 13 {
		t.Fatalf("ablation selection has %d experiments, want 13", len(exps))
	}
}

func TestParseShardCounts(t *testing.T) {
	got, err := parseShardCounts("1, 2,8")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("parseShardCounts = %v, %v", got, err)
	}
	for _, bad := range []string{"", ",,", "0", "-2", "x"} {
		if _, err := parseShardCounts(bad); err == nil {
			t.Errorf("parseShardCounts(%q) must error", bad)
		}
	}
}

func TestSelectExperimentsParallel(t *testing.T) {
	exps, err := selectExperiments("", false, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 2 || exps[0].ID != "abl-parallel" || exps[1].ID != "abl-contention" {
		t.Fatalf("parallel selection = %v, want abl-parallel and abl-contention", exps)
	}
	if _, err := selectExperiments("19", false, true); err == nil {
		t.Fatal("-fig combined with -parallel must error instead of silently dropping one")
	}
}

func TestSelectExperimentsByNumber(t *testing.T) {
	exps, err := selectExperiments("19, 26", false, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 2 || exps[0].ID != "fig19" || exps[1].ID != "fig26" {
		t.Fatalf("selection = %v", exps)
	}
}

func TestSelectExperimentsMixed(t *testing.T) {
	exps, err := selectExperiments("fig22,abl-index", false, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 2 || exps[1].ID != "abl-index" {
		t.Fatalf("selection = %v", exps)
	}
}

func TestSelectExperimentsUnknown(t *testing.T) {
	_, err := selectExperiments("99", false, false)
	if err == nil {
		t.Fatal("unknown figure must error")
	}
	if !strings.Contains(err.Error(), "fig19") {
		t.Errorf("error should list known experiments, got %v", err)
	}
}

func TestSelectExperimentsEmptyTokens(t *testing.T) {
	if _, err := selectExperiments(",,", false, false); err == nil {
		t.Fatal("empty selection must error")
	}
}

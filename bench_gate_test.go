package rtsm

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// benchArtifact mirrors the JSON that scripts/bench_json.sh emits. Only
// the headline-speedup fields are decoded; the per-benchmark metric
// maps are free-form and stay opaque here.
type benchArtifact struct {
	Pair       string                        `json:"pair"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	Baseline   string                        `json:"baseline"`
	Speedups   map[string]float64            `json:"speedups_admissions_per_sec"`
}

// benchBar is one acceptance bar: the named speedup in the named
// artifact must stay at or above Min.
type benchBar struct {
	file string
	key  string // selects within Speedups
	min  float64
}

// benchBars are the perf-trajectory acceptance bars. Each checked-in
// BENCH_*.json is a reference run of scripts/bench_json.sh; if an
// optimization PR regresses a headline speedup below its bar, the
// refreshed artifact fails this gate before CI ever uploads it. Bars
// are set with margin below the reference runs (BENCH_6 recorded
// ~1.96x, BENCH_7 well above its 1.7x/3x acceptance criteria) so
// ordinary benchmark noise does not flake the suite, while a real
// regression — losing batching, breaking the fleet router — still
// trips it.
var benchBars = []benchBar{
	{file: "BENCH_6.json", key: "BenchmarkAdmissionBatched", min: 1.3},
	{file: "BENCH_7.json", key: "BenchmarkFleetAdmission2", min: 1.7},
	{file: "BENCH_7.json", key: "BenchmarkFleetAdmission4", min: 3.0},
	// The journal must stay nearly free: ≥0.9x the bare fault-churn
	// throughput (the reference run records ~parity; see BENCH_8.json).
	{file: "BENCH_8.json", key: "BenchmarkAdmissionFaultChurnJournal", min: 0.9},
	// The streaming front-end must cost less than a fifth of the
	// admission throughput it protects (the reference run records
	// ~parity at 0.99x; see BENCH_9.json).
	{file: "BENCH_9.json", key: "BenchmarkStreamServeServer", min: 0.8},
	// The AIMD overload controller must find the hand-tuned static
	// operating point on its own: ≥0.9x the best static rate's
	// admissions/sec with the service-latency SLO held (the reference
	// run records 0.91x; see BENCH_10.json).
	{file: "BENCH_10.json", key: "BenchmarkStreamAdaptiveAIMD", min: 0.9},
}

// TestBenchTrajectory gates the checked-in benchmark artifacts: every
// BENCH_*.json at the repo root must be registered in benchBars (so new
// artifacts cannot land ungated) and every bar must hold. It reads the
// committed files only — it does not run benchmarks — so it is fast
// enough for the ordinary test suite and deterministic across hosts.
func TestBenchTrajectory(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json artifacts at the repo root; the reference runs must be checked in")
	}
	gated := make(map[string]bool)
	for _, bar := range benchBars {
		gated[bar.file] = true
	}
	arts := make(map[string]*benchArtifact)
	for _, f := range files {
		if !gated[f] {
			t.Errorf("%s is not registered in benchBars; every checked-in artifact needs a perf-trajectory bar", f)
			continue
		}
		// A registered artifact that is unreadable, malformed or hollow
		// fails its own loud check and the loop keeps going, so one bad
		// file reports every problem instead of masking the others.
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Errorf("%s: unreadable: %v; regenerate it with scripts/bench_json.sh", f, err)
			continue
		}
		var a benchArtifact
		if err := json.Unmarshal(raw, &a); err != nil {
			t.Errorf("%s: malformed JSON: %v; regenerate it with scripts/bench_json.sh", f, err)
			continue
		}
		if len(a.Benchmarks) == 0 {
			t.Errorf("%s: no benchmarks recorded; regenerate it with scripts/bench_json.sh", f)
			continue
		}
		for name, metrics := range a.Benchmarks {
			if metrics["admissions_per_sec"] <= 0 {
				t.Errorf("%s: benchmark %q lacks a positive admissions_per_sec; the artifact is truncated or hand-edited", f, name)
			}
		}
		arts[f] = &a
	}
	for _, bar := range benchBars {
		a, ok := arts[bar.file]
		if !ok {
			t.Errorf("%s: artifact missing; regenerate it with scripts/bench_json.sh", bar.file)
			continue
		}
		got, desc, err := bar.lookup(a)
		if err != nil {
			t.Errorf("%s: %v", bar.file, err)
			continue
		}
		if got < bar.min {
			t.Errorf("%s: %s regressed to %.3fx, below the %.1fx bar (%s)",
				bar.file, desc, got, bar.min, a.Pair)
		} else {
			t.Logf("%s: %s at %.3fx (bar %.1fx)", bar.file, desc, got, bar.min)
		}
	}
}

// lookup resolves the bar's speedup value inside the artifact.
func (b benchBar) lookup(a *benchArtifact) (float64, string, error) {
	v, ok := a.Speedups[b.key]
	if !ok {
		return 0, "", fmt.Errorf("missing %q in speedups_admissions_per_sec", b.key)
	}
	if _, ok := a.Benchmarks[b.key]; !ok {
		return 0, "", fmt.Errorf("speedup for %q has no matching benchmarks entry", b.key)
	}
	return v, b.key + " vs " + a.Baseline, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"netdiversity/internal/scenario"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"quick", "full", "pipeline", "churn", "slam", "scale"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("suite list missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "serve") {
		t.Errorf("the serve suite is gone (benchmark/run.sh times the daemon's endpoints):\n%s", out.String())
	}
}

func TestUnknownSuite(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-suite", "bogus"}, &out); err == nil {
		t.Error("unknown suite should fail")
	}
}

// quick is the package's one shared run of the quick suite, written through
// the CLI's refresh path (no -baseline); TestMain removes its directory.
var quick struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if quick.dir != "" {
		os.RemoveAll(quick.dir)
	}
	os.Exit(code)
}

// quickPath returns the shared quick-suite report's file, running the suite
// on first use.
func quickPath(t *testing.T) string {
	t.Helper()
	quick.once.Do(func() {
		if quick.dir, quick.err = os.MkdirTemp("", "divbench-quick"); quick.err != nil {
			return
		}
		var out bytes.Buffer
		if quick.err = run([]string{"-out", filepath.Join(quick.dir, "bench.json")}, &out); quick.err != nil {
			t.Log(out.String())
		}
	})
	if quick.err != nil {
		t.Fatalf("shared quick run: %v", quick.err)
	}
	return filepath.Join(quick.dir, "bench.json")
}

// quickReport returns a private copy of the shared report, free to doctor.
func quickReport(t *testing.T) *scenario.Report {
	t.Helper()
	rep, err := scenario.ReadFile(quickPath(t))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// mustNotHedge fails when gate output carries the vocabulary of the
// environment-matched wall-clock gate this one replaced.
func mustNotHedge(t *testing.T, out string) {
	t.Helper()
	for _, word := range []string{"informational", "strict"} {
		if strings.Contains(out, word) {
			t.Errorf("gate output says %q:\n%s", word, out)
		}
	}
}

func TestQuickSuiteWritesSchemaValidReport(t *testing.T) {
	rep := quickReport(t)
	if rep.Suite != "quick" {
		t.Errorf("suite name %q, want quick", rep.Suite)
	}
	if len(rep.Failed()) != 0 {
		t.Errorf("quick suite has failed cells: %+v", rep.Failed())
	}
	// 2 topologies x 2 sizes x 4 solvers x 2 attacks (the analytic recon
	// estimate plus the Monte-Carlo full-knowledge attacker).
	if len(rep.Cells) != 32 {
		t.Errorf("quick suite has %d cells, want 32", len(rep.Cells))
	}
	mc := 0
	for _, c := range rep.Cells {
		if c.Attack == "adv-full" {
			if c.MCRunsPerSec <= 0 || c.MCAllocPerRun == 0 {
				t.Errorf("cell %s has no Monte-Carlo measurement", c.ID)
			}
			mc++
		}
	}
	if mc != 16 {
		t.Errorf("quick suite has %d Monte-Carlo cells, want 16", mc)
	}
	if rep.Env.GoVersion == "" || rep.Env.NumCPU <= 0 {
		t.Errorf("environment info incomplete: %+v", rep.Env)
	}
	// The file must parse as generic JSON too (schema stability for external
	// consumers).
	data, err := os.ReadFile(quickPath(t))
	if err != nil {
		t.Fatal(err)
	}
	var generic map[string]any
	if err := json.Unmarshal(data, &generic); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema_version", "suite", "matrix", "environment", "cells"} {
		if _, ok := generic[key]; !ok {
			t.Errorf("report JSON missing top-level key %q", key)
		}
	}
}

func TestBaselineComparePassesAgainstItself(t *testing.T) {
	var out bytes.Buffer
	if err := gate(&out, quickReport(t), quickReport(t)); err != nil {
		t.Fatalf("self-comparison should pass: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Errorf("expected PASS in output:\n%s", out.String())
	}
	mustNotHedge(t, out.String())
}

// TestTwoLiveRunsCompareClean: a second live run of the suite gates clean
// against the first — the counters the gate reads do not depend on how busy
// the box was — and a gated run given -out does write its report.
func TestTwoLiveRunsCompareClean(t *testing.T) {
	fresh := filepath.Join(t.TempDir(), "new.json")
	var out bytes.Buffer
	if err := run([]string{"-baseline", quickPath(t), "-out", fresh}, &out); err != nil {
		t.Fatalf("second live run should gate clean against the first: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Errorf("expected PASS in output:\n%s", out.String())
	}
	mustNotHedge(t, out.String())
	if _, err := scenario.ReadFile(fresh); err != nil {
		t.Errorf("-out report: %v", err)
	}
}

// doctorCounters turns a report into a baseline the run it came from must
// fail against: every cell allocated a tenth less, the first reached a
// lower energy and the second took one iteration fewer.
func doctorCounters(rep *scenario.Report) {
	for i := range rep.Cells {
		rep.Cells[i].AllocObjects = rep.Cells[i].AllocObjects * 9 / 10
	}
	rep.Cells[0].Energy *= 1 - 1e-6
	rep.Cells[1].Iterations--
}

func TestBaselineRegressionExitsNonzero(t *testing.T) {
	base, rep := quickReport(t), quickReport(t)
	doctorCounters(base)
	var out bytes.Buffer
	if err := gate(&out, base, rep); !errors.Is(err, errRegression) {
		t.Fatalf("doctored baseline should trip the gate, got err=%v\n%s", err, out.String())
	}
	// The reason sits on the cell's row.
	for i, reason := range []string{"energy", "iterations", "alloc_objects"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, rep.Cells[i].ID+" ") && strings.Contains(line, "regression: "+reason) {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q regression on the row of %s:\n%s", reason, rep.Cells[i].ID, out.String())
		}
	}
	mustNotHedge(t, out.String())
}

// TestBaselineFromDifferentEnvironmentGates: where a baseline was recorded
// and how fast that machine was neither disarms the gate nor trips it.
func TestBaselineFromDifferentEnvironmentGates(t *testing.T) {
	base, rep := quickReport(t), quickReport(t)
	base.Env.NumCPU += 7
	base.Env.GOMAXPROCS += 7
	base.Env.GOARCH = "riscv64"
	for i := range base.Cells {
		base.Cells[i].WallMS /= 10
		base.Cells[i].MCRunsPerSec *= 10
	}
	var out bytes.Buffer
	if err := gate(&out, base, rep); err != nil {
		t.Fatalf("a faster foreign machine must not trip the gate: %v\n%s", err, out.String())
	}
	doctorCounters(base)
	if err := gate(&out, base, rep); !errors.Is(err, errRegression) {
		t.Fatalf("a foreign baseline must still gate the counters, got err=%v", err)
	}
	mustNotHedge(t, out.String())
}

// TestGatedRunLeavesBaselineUntouched: a gated run without -out writes
// nothing — least of all over the baseline it was judged against, which is
// what BENCH_<suite>.json, the default output path, usually is.  Otherwise a
// failing local run would install the regressed numbers as the baseline and
// the next run would pass.
func TestGatedRunLeavesBaselineUntouched(t *testing.T) {
	base := quickReport(t)
	doctorCounters(base)
	dir := t.TempDir()
	if err := base.WriteFile(filepath.Join(dir, "BENCH_quick.json")); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
	before, err := os.ReadFile("BENCH_quick.json")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-baseline", "BENCH_quick.json"}, &out); !errors.Is(err, errRegression) {
		t.Fatalf("doctored baseline should trip the gate, got err=%v\n%s", err, out.String())
	}
	after, err := os.ReadFile("BENCH_quick.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("a failing gated run rewrote its baseline")
	}
	if entries, _ := os.ReadDir("."); len(entries) != 1 {
		t.Errorf("a gated run without -out wrote files: %v", entries)
	}
}

func TestBaselineMissingFile(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-baseline", filepath.Join(t.TempDir(), "nope.json")}, &out)
	if err == nil || errors.Is(err, errRegression) {
		t.Errorf("missing baseline should be a hard error, got %v", err)
	}
}

// TestCheckedInBaselinesHold arms the gate in tier-1: the quick, churn and
// slam suites, run here, must pass the same gate CI applies against the
// repository's BENCH_*.json (scale stays CI-only for its run time).  A
// change that moves a counter on purpose regenerates the file:
// go run ./cmd/divbench -suite <suite>.
func TestCheckedInBaselinesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the churn and slam suites")
	}
	if raceEnabled {
		t.Skip("the race detector's runtime changes allocation counts")
	}
	for _, suite := range []string{"quick", "churn", "slam"} {
		t.Run(suite, func(t *testing.T) {
			base, err := scenario.ReadFile(filepath.Join("..", "..", "BENCH_"+suite+".json"))
			if err != nil {
				t.Fatal(err)
			}
			rep := quickReport(t)
			if suite != "quick" {
				m, err := scenario.Suite(suite)
				if err != nil {
					t.Fatal(err)
				}
				if rep, err = scenario.Run(context.Background(), m); err != nil {
					t.Fatal(err)
				}
			}
			var out bytes.Buffer
			if err := gate(&out, base, rep); err != nil {
				t.Fatalf("BENCH_%s.json no longer holds: %v\n%s", suite, err, out.String())
			}
		})
	}
}

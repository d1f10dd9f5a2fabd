package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netdiversity/internal/scenario"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"quick", "full", "pipeline", "churn", "serve"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("suite list missing %q:\n%s", want, out.String())
		}
	}
}

func TestUnknownSuite(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-suite", "bogus"}, &out); err == nil {
		t.Error("unknown suite should fail")
	}
}

// runQuick runs the quick suite once into a temp file and returns the report.
func runQuick(t *testing.T, extra ...string) (*scenario.Report, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	var out bytes.Buffer
	args := append([]string{"-quick", "-out", path}, extra...)
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, out.String())
	}
	rep, err := scenario.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return rep, path
}

func TestQuickSuiteWritesSchemaValidReport(t *testing.T) {
	rep, path := runQuick(t)
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
			if c.MCRunsPerSec <= 0 {
				t.Errorf("cell %s has no Monte-Carlo throughput measurement", c.ID)
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
	data, err := os.ReadFile(path)
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

// TestBaselineComparePassesAgainstItself checks the gate's PASS path on one
// report diffed against the copy of itself read back from disk: identical
// numbers pass however tight the floor.  Two live runs of the suite are never
// compared — their timings differ by more than the tolerance on a busy box.
func TestBaselineComparePassesAgainstItself(t *testing.T) {
	rep, path := runQuick(t)
	base, err := scenario.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := gate(&out, base, rep, scenario.DiffOptions{FloorMS: 0.001}, false); err != nil {
		t.Fatalf("self-comparison should pass: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Errorf("expected PASS in output:\n%s", out.String())
	}
}

func TestBaselineRegressionExitsNonzero(t *testing.T) {
	rep, _ := runQuick(t)
	// Doctor the baseline: claim every cell ran twice as fast as measured,
	// with a margin far above the floor, so the fresh run must regress.
	for i := range rep.Cells {
		rep.Cells[i].WallMS = rep.Cells[i].WallMS / 2
	}
	doctored := filepath.Join(t.TempDir(), "doctored.json")
	if err := rep.WriteFile(doctored); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-quick", "-out", filepath.Join(t.TempDir(), "new.json"),
		"-baseline", doctored, "-floor-ms", "0.001"}, &out)
	if !errors.Is(err, errRegression) {
		t.Fatalf("doctored 2x-faster baseline should trip the gate, got err=%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "regression") {
		t.Errorf("expected regression verdicts in diff output:\n%s", out.String())
	}
}

func TestBaselineFromDifferentEnvironmentIsInformational(t *testing.T) {
	rep, _ := runQuick(t)
	// Same doctored 2x-faster timings, but recorded on a different machine
	// class: the diff must print, the gate must not fire (and -strict must
	// restore the hard gate).
	for i := range rep.Cells {
		rep.Cells[i].WallMS = rep.Cells[i].WallMS / 2
	}
	rep.Env.NumCPU++
	doctored := filepath.Join(t.TempDir(), "doctored.json")
	if err := rep.WriteFile(doctored); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-quick", "-out", filepath.Join(t.TempDir(), "new.json"),
		"-baseline", doctored, "-floor-ms", "0.001"}, &out); err != nil {
		t.Fatalf("cross-environment baseline should not gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "informational") {
		t.Errorf("expected environment-mismatch notice:\n%s", out.String())
	}
	out.Reset()
	err := run([]string{"-quick", "-out", filepath.Join(t.TempDir(), "new.json"),
		"-baseline", doctored, "-floor-ms", "0.001", "-strict"}, &out)
	if !errors.Is(err, errRegression) {
		t.Fatalf("-strict should gate across environments, got err=%v", err)
	}
}

// TestBaselineReadBeforeOverwrite pins the fix for the self-diff footgun:
// when -baseline names the same file the fresh report is written to (the
// default layout, where both are BENCH_<suite>.json), the baseline must be
// loaded before the run overwrites it — otherwise the diff would compare
// the run against itself and always pass.
func TestBaselineReadBeforeOverwrite(t *testing.T) {
	rep, _ := runQuick(t)
	for i := range rep.Cells {
		rep.Cells[i].WallMS = rep.Cells[i].WallMS / 2
	}
	path := filepath.Join(t.TempDir(), "BENCH_quick.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-quick", "-out", path, "-baseline", path, "-floor-ms", "0.001"}, &out)
	if !errors.Is(err, errRegression) {
		t.Fatalf("baseline at the output path must be diffed pre-overwrite (and trip the doctored gate), got err=%v\n%s",
			err, out.String())
	}
}

func TestBaselineMissingFile(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-quick", "-out", filepath.Join(t.TempDir(), "new.json"),
		"-baseline", filepath.Join(t.TempDir(), "nope.json")}, &out)
	if err == nil || errors.Is(err, errRegression) {
		t.Errorf("missing baseline should be a hard error, got %v", err)
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReportCaseStudyToStdout(t *testing.T) {
	report := runOK(t, "report", "-case-study", "-runs", "40", "-seed", "3")
	for _, want := range []string{
		"# Network diversification assessment",
		"## Assignment comparison",
		"| optimal |",
		"| constrained |",
		"| mono |",
		"## Attacker knowledge sensitivity",
		"## Recommended changes",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestReportToFileWithDot(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "report.md")
	dotDir := filepath.Join(dir, "dot")
	if out := runOK(t, "report", "-case-study", "-runs", "30", "-out", outPath, "-dot-dir", dotDir); !strings.Contains(out, "report written to") {
		t.Error("stdout should confirm the output path")
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	if !strings.Contains(string(data), "Graphviz rendering") {
		t.Error("report should reference the Graphviz files")
	}
	entries, err := os.ReadDir(dotDir)
	if err != nil {
		t.Fatalf("dot dir not created: %v", err)
	}
	if len(entries) < 3 {
		t.Errorf("expected at least 3 dot files, got %d", len(entries))
	}
}

func TestReportErrors(t *testing.T) {
	for _, args := range [][]string{
		{"report", "-case-study", "-entry", "nope"},
		{"report", "-case-study", "-target", "nope"},
		{"report", "-in", "/nonexistent.json"},
		{"report", "-bogus"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("div %v should fail", args)
		}
	}
}

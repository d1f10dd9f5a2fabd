package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTablesList(t *testing.T) {
	out := runOK(t, "tables", "-list")
	for _, want := range []string{"table5", "fig1", "ablation"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestTablesSelectedExperiments(t *testing.T) {
	got := runOK(t, "tables", "-exp", "fig1,fig2", "-seed", "7")
	if !strings.Contains(got, "fig1") || !strings.Contains(got, "fig2") {
		t.Errorf("output missing experiment headers:\n%s", got)
	}
}

func TestTablesErrors(t *testing.T) {
	for _, args := range [][]string{
		{"tables", "-exp", "unknown"},
		{"tables", "-exp", " , "},
		{"tables", "-bogusflag"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("div %v should fail", args)
		}
	}
}

func TestSimtablePublishedTables(t *testing.T) {
	for _, table := range []string{"os", "browser", "database", "merged"} {
		if out := runOK(t, "simtable", "-table", table); out == "" {
			t.Errorf("-table %s produced no output", table)
		}
	}
}

func TestSimtableRecompute(t *testing.T) {
	out := runOK(t, "simtable", "-table", "os", "-recompute")
	if !strings.Contains(out, "recomputed from a synthetic corpus") {
		t.Errorf("recompute output missing corpus note:\n%s", out)
	}
	if !strings.Contains(out, "win7") {
		t.Error("recomputed table should list win7")
	}
}

func TestSimtableJSON(t *testing.T) {
	var decoded map[string]any
	if err := json.Unmarshal([]byte(runOK(t, "simtable", "-table", "browser", "-json")), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if _, ok := decoded["products"]; !ok {
		t.Error("JSON output missing products field")
	}
}

func TestSimtableErrors(t *testing.T) {
	for _, args := range [][]string{
		{"simtable", "-table", "unknown"},
		{"simtable", "-nope"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("div %v should fail", args)
		}
	}
}

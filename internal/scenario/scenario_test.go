package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"netdiversity/internal/netgen"
	"netdiversity/internal/netmodel"
)

// tinyMatrix is a fast two-cell matrix used by the execution tests.
func tinyMatrix() Matrix {
	return Matrix{
		Name:          "tiny",
		Topologies:    []string{TopoUniform, TopoZoned},
		Hosts:         []int{24},
		Degrees:       []int{4},
		Services:      []int{2},
		Solvers:       []string{"trws"},
		Attacks:       []string{"recon"},
		MaxIterations: 8,
		Seed:          7,
	}
}

func TestExpandDeterministic(t *testing.T) {
	m := Matrix{
		Topologies: []string{TopoUniform, TopoScaleFree},
		Hosts:      []int{50, 200},
		Degrees:    []int{4, 8},
		Services:   []int{2},
		Solvers:    []string{"trws", "icm"},
		Attacks:    []string{"none", "recon"},
		Seed:       99,
	}
	a, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("expansion of the same matrix differs between calls")
	}
	want := 2 * 2 * 2 * 1 * 2 * 2
	if len(a) != want {
		t.Fatalf("expanded %d cells, want %d", len(a), want)
	}
	seen := make(map[string]bool, len(a))
	for i, c := range a {
		if c.Index != i {
			t.Errorf("cell %q has index %d, want %d", c.ID, c.Index, i)
		}
		if seen[c.ID] {
			t.Errorf("duplicate cell ID %q", c.ID)
		}
		seen[c.ID] = true
	}
}

func TestCellSeedsStableAcrossAxisEdits(t *testing.T) {
	wide := Matrix{Hosts: []int{50, 200}, Solvers: []string{"trws", "icm"}, Seed: 5}
	narrow := Matrix{Hosts: []int{50}, Solvers: []string{"icm"}, Seed: 5}
	wideCells, err := Expand(wide)
	if err != nil {
		t.Fatal(err)
	}
	narrowCells, err := Expand(narrow)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make(map[string]int64, len(wideCells))
	for _, c := range wideCells {
		seeds[c.ID] = c.Seed
	}
	for _, c := range narrowCells {
		wideSeed, ok := seeds[c.ID]
		if !ok {
			t.Fatalf("cell %q missing from the wider expansion", c.ID)
		}
		if wideSeed != c.Seed {
			t.Errorf("cell %q seed changed when other axis values were removed: %d vs %d", c.ID, wideSeed, c.Seed)
		}
	}
}

func TestExpandRejectsInvalidAxes(t *testing.T) {
	cases := []Matrix{
		{Topologies: []string{"torus"}},
		{Hosts: []int{1}},
		{Solvers: []string{"quantum"}},
		{Attacks: []string{"ddos"}},
	}
	for _, m := range cases {
		if _, err := Expand(m); err == nil {
			t.Errorf("matrix %+v should fail to expand", m)
		}
	}
}

// TestQuickCellsShareInstances pins the instance seed: quick-suite cells
// that differ only in solver or attack build the identical network, so the
// suite's 32 cells solve its 4 instances.
func TestQuickCellsShareInstances(t *testing.T) {
	m, err := Suite("quick")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	specs := make(map[string][]byte)
	for _, c := range cells {
		net, _, err := BuildNetwork(c)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := json.Marshal(netmodel.ToSpec(net, nil))
		if err != nil {
			t.Fatal(err)
		}
		instance := fmt.Sprintf("%s/h%d/d%d/s%d", c.Topology, c.Hosts, c.Degree, c.Services)
		if first, ok := specs[instance]; !ok {
			specs[instance] = spec
		} else if string(first) != string(spec) {
			t.Errorf("cell %s builds a different network than the other %s cells", c.ID, instance)
		}
	}
	if len(cells) != 32 || len(specs) != 4 {
		t.Errorf("quick suite: %d cells over %d instances, want 32 over 4", len(cells), len(specs))
	}
}

func TestBuildNetworkTopologies(t *testing.T) {
	for _, topo := range Topologies() {
		cell := Cell{Topology: topo, Hosts: 20, Degree: 4, Services: 2, ProductsPerService: 3, Seed: 3}
		net, sim, err := BuildNetwork(cell)
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if net.NumHosts() != 20 {
			t.Errorf("%s: built %d hosts, want 20", topo, net.NumHosts())
		}
		if sim == nil {
			t.Fatalf("%s: nil similarity table", topo)
		}
		// Every host product choice must be covered by the similarity table
		// products (the zoned builder shares the synthetic catalogue).
		products := make(map[string]bool)
		for _, p := range sim.Products() {
			products[p] = true
		}
		for _, p := range net.Products() {
			if !products[string(p)] {
				t.Errorf("%s: network product %s missing from similarity table", topo, p)
			}
		}
	}
}

// TestInstancesBuiltTwiceAreIdentical pins that a cell's instance is a pure
// function of its structural axes and instance seed: every topology family,
// and the graph-direct MRF, comes out identical when built twice.  A
// generator that iterates a map fails this with high probability on one run;
// CI repeats it to make a pass by chance unlikely.
func TestInstancesBuiltTwiceAreIdentical(t *testing.T) {
	for _, topo := range Topologies() {
		cell := Cell{Topology: topo, Hosts: 200, Degree: 8, Services: 3, ProductsPerService: 4, GraphSeed: 42}
		var specs [2][]byte
		for i := range specs {
			net, _, err := BuildNetwork(cell)
			if err != nil {
				t.Fatalf("%s: %v", topo, err)
			}
			if specs[i], err = json.Marshal(netmodel.ToSpec(net, nil)); err != nil {
				t.Fatal(err)
			}
		}
		if string(specs[0]) != string(specs[1]) {
			t.Errorf("%s: two builds of the same cell differ", topo)
		}
	}

	cell := Cell{Hosts: 200, Degree: 8, Services: 3, ProductsPerService: 4, GraphSeed: 42}
	a, err := netgen.UniformGraph(cell.instanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := netgen.UniformGraph(cell.instanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("graph-direct builds differ in size: %d/%d vs %d/%d nodes/edges",
			a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	for i := 0; i < a.NumNodes(); i++ {
		if !slices.Equal(a.UnaryView(i), b.UnaryView(i)) {
			t.Fatalf("graph-direct builds differ in node %d's unary row", i)
		}
	}
	for e := 0; e < a.NumEdges(); e++ {
		au, av := a.EdgeEndpoints(e)
		bu, bv := b.EdgeEndpoints(e)
		if au != bu || av != bv || !slices.Equal(a.EdgeMat(e).Data, b.EdgeMat(e).Data) {
			t.Fatalf("graph-direct builds differ at edge %d", e)
		}
	}
}

func TestExecDeterministic(t *testing.T) {
	cells, err := Expand(tinyMatrix())
	if err != nil {
		t.Fatal(err)
	}
	c := cells[0]
	net, sim, err := BuildNetwork(c)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Exec(context.Background(), net, sim, c)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Exec(context.Background(), net, sim, c)
	if err != nil {
		t.Fatal(err)
	}
	if first.Energy != second.Energy || first.PairwiseCost != second.PairwiseCost ||
		first.Richness != second.Richness || first.MTTC != second.MTTC {
		t.Errorf("repeated execution of the same cell diverged: %+v vs %+v", first.Measurement, second.Measurement)
	}
	if first.Assignment == nil {
		t.Error("outcome is missing the decoded assignment")
	}
}

func TestRunCollectsAllCells(t *testing.T) {
	rep, err := Run(context.Background(), tinyMatrix())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("report has %d cells, want 2", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Error != "" {
			t.Errorf("cell %s failed: %s", c.ID, c.Error)
		}
		if c.WallMS <= 0 {
			t.Errorf("cell %s has no wall-clock measurement", c.ID)
		}
		if c.MTTC <= 0 {
			t.Errorf("cell %s has no MTTC estimate under the recon attack", c.ID)
		}
		if c.Richness <= 0 {
			t.Errorf("cell %s has no diversity metric", c.ID)
		}
	}
}

// TestExecRecordsMCMetrics verifies that Monte-Carlo attack cells carry the
// attack engine's throughput and allocation measurements (and that the
// analytic models do not).
func TestExecRecordsMCMetrics(t *testing.T) {
	m := tinyMatrix()
	m.Attacks = []string{"adv-full"}
	cells, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	c := cells[0]
	net, sim, err := BuildNetwork(c)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Exec(context.Background(), net, sim, c)
	if err != nil {
		t.Fatal(err)
	}
	if out.MCRunsPerSec <= 0 {
		t.Errorf("adv-full cell has no Monte-Carlo throughput: %+v", out.Measurement)
	}
	if out.MTTC <= 0 {
		t.Errorf("adv-full cell has no MTTC: %+v", out.Measurement)
	}

	m.Attacks = []string{"recon"}
	cells, err = Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	net, sim, err = BuildNetwork(cells[0])
	if err != nil {
		t.Fatal(err)
	}
	out, err = Exec(context.Background(), net, sim, cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if out.MCRunsPerSec != 0 || out.MCAllocPerRun != 0 {
		t.Errorf("analytic recon cell should have no Monte-Carlo metrics: %+v", out.Measurement)
	}
}

func TestPerCellTimeoutHonored(t *testing.T) {
	m := tinyMatrix()
	m.Timeout = time.Nanosecond
	rep, err := Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	// A timeout is an expected degradation, not a failure: the cell records
	// the timed_out marker, keeps Error empty and the suite completes.
	if n := len(rep.Failed()); n != 0 {
		t.Fatalf("timeouts must not count as failures, got %d/%d", n, len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if !c.TimedOut {
			t.Errorf("cell %s error %q not marked as a timeout", c.ID, c.Error)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep, err := Run(context.Background(), tinyMatrix())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, loaded) {
		t.Errorf("report changed across the JSON round trip:\nwrote  %+v\nloaded %+v", rep, loaded)
	}
}

// TestReadFileRejectsWrongSchema: a report written by another schema version
// — the pre-PR-23 version 1 files in particular — is refused with an error
// that says how to replace it.
func TestReadFileRejectsWrongSchema(t *testing.T) {
	for _, version := range []string{"1", "99"} {
		path := filepath.Join(t.TempDir(), "bench.json")
		data := `{"schema_version": ` + version + `, "suite": "tiny", "cells": [{"id": "x"}]}`
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadFile(path)
		if err == nil || !strings.Contains(err.Error(), "regenerate the file with divbench -suite tiny") {
			t.Errorf("schema version %s: want a rejection that says to regenerate, got %v", version, err)
		}
	}
}

func TestSuitesExpand(t *testing.T) {
	for _, name := range SuiteNames() {
		m, err := Suite(name)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := Expand(m)
		if err != nil {
			t.Fatalf("suite %s: %v", name, err)
		}
		if len(cells) == 0 {
			t.Errorf("suite %s expands to no cells", name)
		}
	}
	if _, err := Suite("bogus"); err == nil {
		t.Error("unknown suite should fail")
	}
}

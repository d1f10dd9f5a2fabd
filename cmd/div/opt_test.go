package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netdiversity/internal/netmodel"
)

// writeSpecFile writes a spec of linked hosts that each choose an OS from
// {win7, deb80}, with every host listed in pinned fixed to win7.
func writeSpecFile(t *testing.T, hosts []netmodel.HostID, pinned ...netmodel.HostID) string {
	t.Helper()
	var spec netmodel.Spec
	for i, h := range hosts {
		spec.Hosts = append(spec.Hosts, netmodel.HostSpec{
			ID:       h,
			Services: []netmodel.ServiceID{"os"},
			Choices:  map[netmodel.ServiceID][]netmodel.ProductID{"os": {"win7", "deb80"}},
		})
		if i > 0 {
			spec.Links = append(spec.Links, netmodel.Link{A: hosts[i-1], B: h})
		}
	}
	for _, h := range pinned {
		spec.Fixed = append(spec.Fixed, netmodel.FixedSpec{Host: h, Service: "os", Product: "win7"})
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runOK runs div with args and returns its output, failing the test on error.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("div %v: %v\n%s", args, err, out.String())
	}
	return out.String()
}

func TestOptWithSpecFile(t *testing.T) {
	path := writeSpecFile(t, []netmodel.HostID{"a", "b"})
	outPath := filepath.Join(t.TempDir(), "assignment.json")
	if out := runOK(t, "opt", "-in", path, "-out", outPath); !strings.Contains(out, "hosts=2") {
		t.Errorf("summary missing host count:\n%s", out)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("assignment file not written: %v", err)
	}
	a := netmodel.NewAssignment()
	if err := json.Unmarshal(data, a); err != nil {
		t.Fatalf("assignment file not valid JSON: %v", err)
	}
	if a.Len() != 2 {
		t.Errorf("assignment has %d entries, want 2", a.Len())
	}
	// The two connected hosts should receive different operating systems.
	if a.Product("a", "os") == a.Product("b", "os") {
		t.Error("connected hosts should be diversified")
	}
}

func TestOptDotExport(t *testing.T) {
	path := writeSpecFile(t, []netmodel.HostID{"a", "b"})
	dotPath := filepath.Join(t.TempDir(), "net.dot")
	runOK(t, "opt", "-in", path, "-dot", dotPath)
	data, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatalf("dot file not written: %v", err)
	}
	if !strings.Contains(string(data), "graph \"diversified\"") {
		t.Errorf("dot output unexpected:\n%s", data)
	}
}

func TestOptCaseStudyScenarios(t *testing.T) {
	for _, scenario := range []string{"none", "host-constraints", "product-constraints"} {
		if out := runOK(t, "opt", "-case-study", "-scenario", scenario, "-iterations", "30"); !strings.Contains(out, "hosts=29") {
			t.Errorf("scenario %s output missing case-study size:\n%s", scenario, out)
		}
	}
	// Without -in the case study is the problem.
	if out := runOK(t, "opt", "-iterations", "30"); !strings.Contains(out, "hosts=29") {
		t.Errorf("opt without -in should optimise the case study:\n%s", out)
	}
}

func TestOptErrors(t *testing.T) {
	for _, args := range [][]string{
		{},        // no subcommand
		{"bogus"}, // unknown subcommand
		{"opt", "-in", "/nonexistent/spec.json"},
		{"opt", "-case-study", "-scenario", "bogus"},
		{"opt", "-case-study", "-solver", "bogus"},
		{"opt", "-zzz"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("div %v should fail", args)
		}
	}
}

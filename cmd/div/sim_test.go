package main

import (
	"bytes"
	"regexp"
	"testing"

	"netdiversity/internal/netmodel"
)

func TestSimCaseStudyMono(t *testing.T) {
	got := runOK(t, "sim", "-case-study", "-assignment", "mono", "-runs", "50", "-entry", "c4", "-target", "t5", "-seed", "2")
	if !regexp.MustCompile(`mttc=.*\n.*d_bn=`).MatchString(got) {
		t.Errorf("output missing metrics:\n%s", got)
	}
}

func TestSimCaseStudyOptimalVsMono(t *testing.T) {
	mono := runOK(t, "sim", "-case-study", "-assignment", "mono", "-runs", "60", "-seed", "5")
	optimal := runOK(t, "sim", "-case-study", "-assignment", "optimal", "-runs", "60", "-seed", "5")
	if mono == optimal {
		t.Error("mono and optimal evaluations should differ")
	}
}

func TestSimRandomAndConstraints(t *testing.T) {
	runOK(t, "sim", "-case-study", "-assignment", "random", "-runs", "30", "-seed", "1")
	runOK(t, "sim", "-case-study", "-scenario", "host-constraints", "-runs", "30", "-seed", "1")
}

// TestSimHonoursSpecConstraints pins every host of a spec to one product,
// so the only admissible assignment is the homogeneous one: the optimal
// assignment must be solved under the spec's constraints and score the
// mono d_bn.
func TestSimHonoursSpecConstraints(t *testing.T) {
	hosts := []netmodel.HostID{"a", "b", "c"}
	path := writeSpecFile(t, hosts, hosts...)
	dbn := regexp.MustCompile(`d_bn=(\S+)`)
	score := func(kind string) string {
		out := runOK(t, "sim", "-in", path, "-assignment", kind, "-entry", "a", "-target", "c", "-runs", "20")
		m := dbn.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no d_bn in output:\n%s", out)
		}
		return m[1]
	}
	if optimal, mono := score("optimal"), score("mono"); optimal != mono {
		t.Errorf("optimal d_bn %s under all-pinned constraints, want the mono d_bn %s", optimal, mono)
	}
}

func TestSimErrors(t *testing.T) {
	for _, args := range [][]string{
		{"sim", "-case-study", "-assignment", "bogus"},
		{"sim", "-case-study", "-entry", "nope", "-runs", "5"},
		{"sim", "-in", "/nonexistent.json"},
		{"sim", "-assignment-file", "/nonexistent.json", "-case-study"},
		{"sim", "-xyz"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("div %v should fail", args)
		}
	}
}

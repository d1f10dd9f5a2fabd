package scenario

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

func TestParseChurn(t *testing.T) {
	cases := []struct {
		in      string
		hostPct float64
		svcPct  float64
		ok      bool
	}{
		{"none", 0, 0, true},
		{"", 0, 0, true},
		{"hosts5", 0.05, 0, true},
		{"svc10", 0, 0.10, true},
		{"mixed25", 0.25, 0.25, true},
		{"HOSTS5", 0.05, 0, true},
		{"hosts0", 0, 0, false},
		{"hosts51", 0, 0, false},
		{"hostsx", 0, 0, false},
		{"bogus", 0, 0, false},
	}
	for _, c := range cases {
		spec, err := ParseChurn(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseChurn(%q): err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if err != nil {
			continue
		}
		if spec.HostPct != c.hostPct || spec.ServicePct != c.svcPct {
			t.Errorf("ParseChurn(%q) = %+v, want host=%v svc=%v", c.in, spec, c.hostPct, c.svcPct)
		}
	}
}

func churnCell(t *testing.T, hosts int, churn, solver string) Cell {
	t.Helper()
	m := Matrix{
		Name:          "churn-test",
		Hosts:         []int{hosts},
		Degrees:       []int{6},
		Solvers:       []string{solver},
		Churns:        []string{churn},
		MaxIterations: 10,
		Seed:          7,
	}
	cells, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("expanded %d cells, want 1", len(cells))
	}
	return cells[0]
}

func TestGenerateChurnDeterministic(t *testing.T) {
	cell := churnCell(t, 60, "mixed10", "icm")
	net1, _, err := BuildNetwork(cell)
	if err != nil {
		t.Fatal(err)
	}
	net2, _, _ := BuildNetwork(cell)
	d1, err := GenerateChurn(net1, cell)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := GenerateChurn(net2, cell)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(d1)
	j2, _ := json.Marshal(d2)
	if string(j1) != string(j2) {
		t.Fatal("churn streams differ across identical cells")
	}
	if len(d1) == 0 {
		t.Fatal("mixed10 produced an empty stream")
	}
	ops := 0
	kinds := map[string]int{}
	for _, d := range d1 {
		ops += len(d.Ops)
		for _, op := range d.Ops {
			kinds[string(op.Op)]++
		}
	}
	if kinds["remove_host"] == 0 || kinds["add_host"] == 0 || kinds["update_services"] == 0 {
		t.Fatalf("mixed churn misses event kinds: %v", kinds)
	}
	// Every join must be wired in: add_host ops are followed by add_edge ops.
	if kinds["add_edge"] < kinds["add_host"] {
		t.Fatalf("joins are not wired: %v", kinds)
	}
	_ = ops
}

func TestGenerateChurnAppliesCleanly(t *testing.T) {
	cell := churnCell(t, 50, "hosts10", "icm")
	net, _, err := BuildNetwork(cell)
	if err != nil {
		t.Fatal(err)
	}
	before := net.NumHosts()
	deltas, err := GenerateChurn(net, cell)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range deltas {
		if err := d.Apply(net); err != nil {
			t.Fatalf("delta %d does not apply: %v", i, err)
		}
	}
	if err := net.Validate(); err != nil {
		t.Fatalf("network invalid after churn: %v", err)
	}
	// hosts10 churns ~10%: half leaves, half joins, so the count stays near
	// the start.
	if diff := net.NumHosts() - before; diff < -3 || diff > 3 {
		t.Fatalf("host count drifted by %d", diff)
	}
}

func TestExecChurnCell(t *testing.T) {
	cell := churnCell(t, 60, "hosts10", "trws")
	cell.Timeout = time.Minute
	net, sim, err := BuildNetwork(cell)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Exec(context.Background(), net, sim, cell)
	if err != nil {
		t.Fatal(err)
	}
	m := out.Measurement
	if m.Churn != "hosts10" || m.ChurnSteps == 0 {
		t.Fatalf("churn measurement missing: %+v", m)
	}
	if m.ChurnIncrementalMS <= 0 || m.ChurnFullMS <= 0 || m.ChurnSpeedup <= 0 {
		t.Fatalf("churn wall-clocks missing: %+v", m)
	}
	if m.ChurnDirtyNodes <= 0 || m.ChurnIterations <= 0 || m.ChurnAllocBytes == 0 {
		t.Fatalf("churn work counters missing: %+v", m)
	}
	if m.ChurnChangedFrac < 0 || m.ChurnChangedFrac > 1 {
		t.Fatalf("changed fraction out of range: %v", m.ChurnChangedFrac)
	}
	// On a 60-host network the gap guard is loose; the churn suite's report
	// tracks the real 1000-host target.
	if m.ChurnEnergyGapPct > 5 {
		t.Fatalf("incremental energy gap %.2f%% too large", m.ChurnEnergyGapPct)
	}
}

func TestExpandChurnIDs(t *testing.T) {
	m := Matrix{
		Hosts:   []int{50},
		Solvers: []string{"icm"},
		Churns:  []string{"none", "hosts5"},
	}
	cells, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
	// Churn-free IDs keep the historical six-segment form.
	if got := cells[0].ID; got != "uniform/h50/d8/s3/icm/none" {
		t.Fatalf("churn-free cell ID changed: %s", got)
	}
	if got := cells[1].ID; got != "uniform/h50/d8/s3/icm/none/hosts5" {
		t.Fatalf("churn cell ID: %s", got)
	}
	if cells[0].Seed == cells[1].Seed {
		t.Fatal("churn cells share the seed of their churn-free twin")
	}
}

func TestChurnSuiteExpands(t *testing.T) {
	m, err := Suite("churn")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range cells {
		if c.ID == "uniform/h1000/d8/s3/trws/none/hosts5" {
			found = true
		}
	}
	if !found {
		t.Fatalf("churn suite misses the headline 1000-host 5%% trws cell; got %d cells", len(cells))
	}
}

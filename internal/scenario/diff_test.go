package scenario

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netdiversity/internal/slam"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the diff golden file")

// gateCell is a completed cell carrying every gated counter and every
// wall-clock column: a quick-suite Monte-Carlo cell, a churn cell and a slam
// cell rolled into one.
func gateCell() Measurement {
	return Measurement{
		ID: "c", Seed: 7, InstanceSeed: 9, Nodes: 600, Edges: 2400,
		Energy: 100, Iterations: 12, Converged: true,
		WallMS: 50, AllocObjects: 10000, AllocBytes: 1 << 20,
		MCRunsPerSec: 1e5, MCAllocPerRun: 2000,
		Churn: "mixed10", ChurnSteps: 5, ChurnIncrementalMS: 40, ChurnFullMS: 400, ChurnSpeedup: 10,
		ChurnEnergyGapPct: -0.5, ChurnDirtyNodes: 300, ChurnIterations: 25, ChurnAllocBytes: 1 << 20,
		Slam: &slam.RunResult{
			AchievedRPS: 8000,
			Total:       slam.OpStats{Count: 4000, OK: 4000, P99MS: 5, P999MS: 9},
			Ops:         map[string]slam.OpStats{slam.OpRead: {Count: 2800, P99MS: 4}, slam.OpDelta: {Count: 600, P99MS: 8}},
			Mem:         &slam.MemReport{AllocBytesPerOp: 20000},
		},
	}
}

// gateReport wraps cells into a schema-valid report.
func gateReport(cells ...Measurement) *Report {
	return &Report{SchemaVersion: SchemaVersion, Suite: "quick", GeneratedAt: "2026-07-28T00:00:00Z", Cells: cells}
}

// scaleTimings multiplies every wall-clock column of the cell by f.
func scaleTimings(m *Measurement, f float64) {
	m.WallMS *= f
	m.ChurnIncrementalMS *= f
	m.ChurnFullMS *= f
	m.MCRunsPerSec /= f
	m.Slam.AchievedRPS /= f
	m.Slam.Total.P99MS *= f
	m.Slam.Total.P999MS *= f
	for op, st := range m.Slam.Ops {
		st.P99MS *= f
		m.Slam.Ops[op] = st
	}
}

// gateRules is the gate's rule table: each row doctors a baseline/current
// pair of gateCell reports and names the verdict (and the reason) cell "c" —
// or the row's own cell — must get.  Every verdict but ok and timed_out must
// fail the diff.
var gateRules = []struct {
	group, name string
	doctor      func(base, cur *Report)
	cell        string // "" = "c"
	want        Verdict
	note        string // substring of the one-line reason
}{
	{"solve", "iterations +1", func(_, cur *Report) { cur.Cells[0].Iterations++ }, "", VerdictRegression, "iterations 12 -> 13"},
	{"solve", "energy +1e-6 relative", func(_, cur *Report) { cur.Cells[0].Energy *= 1 + 1e-6 }, "", VerdictRegression, "energy 100 -> 100.0001"},
	{"solve", "alloc_objects over its bound", func(_, cur *Report) { cur.Cells[0].AllocObjects = 10600 }, "", VerdictRegression, "alloc_objects 10000 -> 10600 (bound +5%)"},
	{"solve", "alloc_bytes over its bound", func(_, cur *Report) { cur.Cells[0].AllocBytes += 1 << 17 }, "", VerdictRegression, "alloc_bytes"},
	{"solve", "converged true -> false", func(_, cur *Report) { cur.Cells[0].Converged = false }, "", VerdictRegression, "converged true -> false"},
	{"solve", "cell error", func(_, cur *Report) { cur.Cells[0] = Measurement{ID: "c", Error: "solver panicked"} }, "", VerdictError, "solver panicked"},
	{"solve", "timed-out cell", func(_, cur *Report) { cur.Cells[0] = Measurement{ID: "c", WallMS: 60000, TimedOut: true} }, "", VerdictTimeout, ""},
	{"solve", "new cell", func(_, cur *Report) { cur.Cells = append(cur.Cells, Measurement{ID: "extra"}) }, "extra", VerdictNew, regenerate},
	{"solve", "missing cell", func(base, _ *Report) { base.Cells = append(base.Cells, Measurement{ID: "gone"}) }, "gone", VerdictMissing, regenerate},
	{"solve", "changed seed", func(_, cur *Report) { cur.Cells[0].Seed = 8 }, "", VerdictStale, "seed 7 -> 8: " + regenerate},
	{"solve", "changed instance seed", func(_, cur *Report) { cur.Cells[0].InstanceSeed = 10 }, "", VerdictStale, "instance_seed 9 -> 10: " + regenerate},
	{"solve", "baseline without instance seed", func(base, _ *Report) { base.Cells[0].InstanceSeed = 0 }, "", VerdictOK, ""},
	{"solve", "changed graph", func(_, cur *Report) { cur.Cells[0].Edges++ }, "", VerdictStale, "edges 2400 -> 2401"},

	{"mc", "mc_alloc_per_run over its bound", func(_, cur *Report) { cur.Cells[0].MCAllocPerRun = 2120 }, "", VerdictRegression, "mc_alloc_per_run 2000 -> 2120"},
	{"mc", "mc_runs_per_sec collapsed", func(_, cur *Report) { cur.Cells[0].MCRunsPerSec /= 10 }, "", VerdictOK, ""},

	{"churn", "churn_dirty_nodes +1", func(_, cur *Report) { cur.Cells[0].ChurnDirtyNodes++ }, "", VerdictRegression, "churn_dirty_nodes 300 -> 301"},
	{"churn", "churn_iterations +1", func(_, cur *Report) { cur.Cells[0].ChurnIterations++ }, "", VerdictRegression, "churn_iterations 25 -> 26"},
	{"churn", "churn_alloc_bytes over its bound", func(_, cur *Report) { cur.Cells[0].ChurnAllocBytes += 1 << 17 }, "", VerdictRegression, "churn_alloc_bytes"},
	{"churn", "energy gap +1.1 points", func(_, cur *Report) { cur.Cells[0].ChurnEnergyGapPct += 1.1 }, "", VerdictRegression, "churn_energy_gap_pct -0.50 -> 0.60"},
	{"churn", "churn_incremental_ms x10", func(_, cur *Report) { cur.Cells[0].ChurnIncrementalMS *= 10 }, "", VerdictOK, ""},
	{"churn", "changed stream length", func(_, cur *Report) { cur.Cells[0].ChurnSteps = 4 }, "", VerdictStale, "churn_steps 5 -> 4"},

	{"slam", "errors 0 -> 3", func(_, cur *Report) { cur.Cells[0].Slam.Total.Errors = 3 }, "", VerdictRegression, "slam.total.errors 0 -> 3"},
	{"slam", "alloc per op over its bound", func(_, cur *Report) { cur.Cells[0].Slam.Mem.AllocBytesPerOp = 26000 }, "", VerdictRegression, "slam.mem.alloc_bytes_per_op 20000 -> 26000 (bound +25%)"},
	{"slam", "p99s x10", func(_, cur *Report) {
		cur.Cells[0].Slam.Total.P99MS *= 10
		cur.Cells[0].Slam.Ops[slam.OpDelta] = slam.OpStats{Count: 600, P99MS: 80}
	}, "", VerdictOK, ""},
	{"slam", "changed op budget", func(_, cur *Report) { cur.Cells[0].Slam.Total.Count = 400 }, "", VerdictStale, "slam.total.count 4000 -> 400"},
	{"slam", "slam phase gone", func(_, cur *Report) { cur.Cells[0].Slam = nil }, "", VerdictStale, "slam.total.count 4000 -> 0"},

	// The environment block and every timing may differ tenfold either way.
	{"foreign", "baseline from a 10x faster machine", func(base, _ *Report) {
		base.Env = Environment{GoVersion: "go1.99", GOOS: "plan9", GOARCH: "riscv64", NumCPU: 64, GOMAXPROCS: 64}
		scaleTimings(&base.Cells[0], 0.1)
	}, "", VerdictOK, ""},
	{"foreign", "baseline from a 10x slower machine", func(base, _ *Report) {
		base.Env = Environment{GoVersion: "go1.99", GOOS: "plan9", GOARCH: "riscv64", NumCPU: 1, GOMAXPROCS: 1}
		scaleTimings(&base.Cells[0], 10)
	}, "", VerdictOK, ""},

	{"clean", "identical", func(_, _ *Report) {}, "", VerdictOK, ""},
	{"clean", "every bounded counter just inside its bound", func(_, cur *Report) {
		c := &cur.Cells[0]
		c.Energy *= 1 + 1e-12
		c.AllocObjects, c.AllocBytes, c.MCAllocPerRun = 10540, (1<<20)+110000, 2090
		c.ChurnAllocBytes += 110000
		c.ChurnEnergyGapPct += 0.9
		c.Slam.Mem.AllocBytesPerOp = 24000
	}, "", VerdictOK, ""},
	{"clean", "every counter improved", func(base, cur *Report) {
		base.Cells[0].Converged = false
		base.Cells[0].Slam.Total.Errors = 3
		c := &cur.Cells[0]
		c.Energy--
		c.Iterations--
		c.AllocObjects, c.AllocBytes, c.MCAllocPerRun = 5000, 1<<19, 1000
		c.ChurnDirtyNodes--
		c.ChurnIterations--
		c.ChurnAllocBytes /= 2
		c.ChurnEnergyGapPct -= 2
		c.Slam.Mem.AllocBytesPerOp /= 2
	}, "", VerdictOK, ""},
}

// runGateRules runs one group of the rule table.
func runGateRules(t *testing.T, group string) {
	for _, tc := range gateRules {
		if tc.group != group {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			base, cur := gateReport(gateCell()), gateReport(gateCell())
			tc.doctor(base, cur)
			d := Compare(base, cur)
			id := tc.cell
			if id == "" {
				id = "c"
			}
			var got *CellDelta
			for i := range d.Cells {
				if d.Cells[i].ID == id {
					got = &d.Cells[i]
				}
			}
			if got == nil {
				t.Fatalf("diff has no row for cell %q: %+v", id, d.Cells)
			}
			if got.Verdict != tc.want || !strings.Contains(got.Note, tc.note) || strings.Contains(got.Note, "\n") {
				t.Errorf("verdict %s (%q), want %s (%q)", got.Verdict, got.Note, tc.want, tc.note)
			}
			passes := tc.want == VerdictOK || tc.want == VerdictTimeout
			if d.Fails() == passes {
				t.Errorf("Fails() = %v for verdict %s", d.Fails(), tc.want)
			}
			if !passes && got.Note == "" {
				t.Error("a failing verdict needs a reason")
			}
		})
	}
}

// The gate's rules live in one table (gateRules); these are its groups.
func TestCompareVerdicts(t *testing.T)               { runGateRules(t, "solve") }
func TestCompareGatesMCMetrics(t *testing.T)         { runGateRules(t, "mc") }
func TestCompareGatesChurnMetrics(t *testing.T)      { runGateRules(t, "churn") }
func TestCompareGatesSlamMetrics(t *testing.T)       { runGateRules(t, "slam") }
func TestCompareDoctoredFasterBaseline(t *testing.T) { runGateRules(t, "foreign") }
func TestCompareWithinToleranceClean(t *testing.T)   { runGateRules(t, "clean") }

// TestCompareErroredBaselineCellNeverGates: a baseline cell that itself
// failed or timed out has no usable counters, so whatever the current cell
// did — completed, or failed too — it is not classified by garbage.
func TestCompareErroredBaselineCellNeverGates(t *testing.T) {
	baseline := gateReport(
		Measurement{ID: "a", WallMS: 60000, Error: "context deadline exceeded", TimedOut: true},
		Measurement{ID: "b", WallMS: 0.1, Error: "boom"},
		Measurement{ID: "c", WallMS: 60000, TimedOut: true}, // timeout marker, no error
		Measurement{ID: "d", WallMS: 0.1, Error: "boom"},
	)
	done := gateCell()
	current := gateReport(done, done, done, Measurement{ID: "d", Error: "still boom"})
	for i, id := range []string{"a", "b", "c"} {
		current.Cells[i].ID = id
	}
	d := Compare(baseline, current)
	if d.Fails() {
		t.Error("errored baseline cells must not gate the current run")
	}
	for _, c := range d.Cells {
		if c.Verdict != VerdictOK {
			t.Errorf("cell %s: verdict %s, want ok", c.ID, c.Verdict)
		}
	}
}

// TestDiffRenderGolden pins the diff's text layout, one row per verdict, so
// the CI log format only changes deliberately (refresh with go test
// ./internal/scenario -run Golden -update-golden).
func TestDiffRenderGolden(t *testing.T) {
	cell := func(id string, wallMS, energy float64) Measurement {
		return Measurement{ID: id, Seed: 1, Nodes: 100, Edges: 400, WallMS: wallMS, Energy: energy, Iterations: 10, AllocObjects: 5000}
	}
	baseline := gateReport(
		cell("uniform/h50/d6/s2/trws/recon", 100, 10),
		cell("uniform/h200/d6/s2/trws/recon", 400, 40),
		cell("zoned/h200/d6/s2/bp/recon", 300, 30),
		cell("uniform/h200/d6/s2/anneal/recon", 250, 25),
		cell("zoned/h200/d6/s2/anneal/recon", 150, 15),
		cell("zoned/h50/d6/s2/icm/recon", 10, 5),
		cell("uniform/h10000/d8/s3/trws/none", 2000, 200),
	)
	slower, fewer := cell("uniform/h200/d6/s2/trws/recon", 800, 40), cell("zoned/h200/d6/s2/bp/recon", 150, 29.5)
	slower.AllocObjects = 9000
	fewer.AllocObjects = 3000
	reseeded := cell("zoned/h50/d6/s2/icm/recon", 18, 5.5)
	reseeded.Seed = 2
	current := gateReport(
		cell("uniform/h50/d6/s2/trws/recon", 104, 10), // ok
		slower, // regression: allocations
		fewer,  // ok: better energy, fewer allocations, faster
		Measurement{ID: "uniform/h200/d6/s2/anneal/recon", Error: "solver panicked"},
		reseeded, // stale
		Measurement{ID: "uniform/h10000/d8/s3/trws/none", WallMS: 180000, TimedOut: true},
		cell("uniform/h50/d6/s2/bp/recon", 90, 9), // new
	)
	got := Compare(baseline, current).Render()
	golden := filepath.Join("testdata", "diff_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-golden to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("diff rendering drifted from the golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

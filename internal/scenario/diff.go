package scenario

import (
	"fmt"
	"math"
	"strings"
)

// The gate compares only what a run of the same code reproduces on any
// machine: the solvers' deterministic outputs, exactly, and allocation
// counters, within a bound.  Every bound is a constant chosen from the spread
// of five repeated runs (recorded in CHANGES.md, PR 23); wall-clock columns
// are carried through the diff for the reader and never gate.
const (
	// energyBound is the relative rise of the objective tolerated as
	// floating-point noise; the solvers are deterministic per seed, so any
	// real rise is a quality regression.
	energyBound = 1e-9
	// allocBound is the relative growth tolerated on the allocation counters
	// of a solve, a churn stream and a Monte-Carlo campaign — 5%, the bound
	// the pinned benchmark's alloc_kb_per_op uses.  Their run-to-run noise
	// is absolute, not relative: ±5 objects and, in one run of six or so,
	// 5.5 KB extra, whatever the cell's size (allocations the runtime makes
	// on its own account).  That is under 0.1% of most cells but 4% of
	// the flat scale cells' ~100 objects and 0.6% of the smallest churn
	// stream's bytes, so the two slacks — ten times the noise — are added on
	// top of the relative bound.
	allocBound        = 0.05
	allocObjectsSlack = 50
	allocBytesSlack   = 64 << 10
	// slamAllocBound is the same for a slam cell's bytes per request, which
	// additionally vary with how the concurrent workers interleave (which
	// deltas coalesce, who wins a writer slot): five-run spread 2.5%.
	slamAllocBound = 0.25
	// churnGapBound is the absolute worsening, in percentage points, of a
	// churn cell's worst-step energy gap over a from-scratch re-solve: the
	// incremental path is allowed noise, not a quality slide.
	churnGapBound = 1.0
)

// Verdict classifies one cell of a baseline diff.
type Verdict string

const (
	// VerdictOK means every gated counter is within its bound.
	VerdictOK Verdict = "ok"
	// VerdictRegression means a gated counter got worse than its bound
	// allows; the delta's Note names it.
	VerdictRegression Verdict = "regression"
	// VerdictError means the cell failed in the current run but completed in
	// the baseline.
	VerdictError Verdict = "error"
	// VerdictTimeout means the cell hit its per-cell deadline in the current
	// run.  Timeouts never fail the gate: scale suites deliberately carry
	// cells (flat solvers at the largest sizes) that age out as the matrix
	// grows, and a slow runner must degrade a report, not break CI.
	VerdictTimeout Verdict = "timed_out"
	// VerdictNew means the cell has no baseline counterpart.  Like missing
	// and stale it fails the gate: the baseline does not describe this run,
	// counters of different work cannot be compared, and passing would
	// silently disarm the cell.
	VerdictNew Verdict = "new"
	// VerdictMissing means the baseline cell is absent from the current run.
	VerdictMissing Verdict = "missing"
	// VerdictStale means the two cells solved different instances (seed,
	// instance seed, graph size, churn stream length or slam request count
	// differ).
	VerdictStale Verdict = "stale"
)

// regenerate is the note on every cell the baseline does not describe.
const regenerate = "regenerate the baseline"

// CellDelta compares one cell across two reports.
type CellDelta struct {
	ID          string
	OldMS       float64
	NewMS       float64
	Ratio       float64 // NewMS / OldMS; 0 when either side is absent
	DeltaEnergy float64 // NewEnergy - OldEnergy
	Verdict     Verdict
	// Note is the one-line reason behind a failing verdict.
	Note string
}

// Diff is the cell-by-cell comparison of a run against a baseline.
type Diff struct {
	Suite string
	Cells []CellDelta
}

// Counts tallies the verdicts.
func (d Diff) Counts() map[Verdict]int {
	out := make(map[Verdict]int)
	for _, c := range d.Cells {
		out[c.Verdict]++
	}
	return out
}

// Fails reports whether any cell fails the gate: everything except ok and
// timed_out does.
func (d Diff) Fails() bool {
	for _, c := range d.Cells {
		if c.Verdict != VerdictOK && c.Verdict != VerdictTimeout {
			return true
		}
	}
	return false
}

// Compare diffs the current report against a baseline, cell by cell (matched
// on the stable cell ID), on machine-independent fields only; the reports'
// environment blocks are not consulted.
func Compare(baseline, current *Report) Diff {
	d := Diff{Suite: current.Suite}
	for _, cur := range current.Cells {
		old, ok := baseline.Cell(cur.ID)
		if !ok {
			d.Cells = append(d.Cells, CellDelta{ID: cur.ID, NewMS: cur.WallMS, Verdict: VerdictNew, Note: regenerate})
			continue
		}
		delta := CellDelta{ID: cur.ID, OldMS: old.WallMS, NewMS: cur.WallMS, Verdict: VerdictOK}
		switch {
		case cur.TimedOut:
			delta.Verdict = VerdictTimeout
		case old.Error != "" || old.TimedOut:
			// A baseline cell that itself failed or timed out carries no
			// usable counters (divbench refuses to pass a report with failed
			// cells, but a hand-edited baseline could still contain one, and
			// timed-out cells are kept by design).
		case cur.Error != "":
			delta.Verdict, delta.Note = VerdictError, cur.Error
		default:
			delta.DeltaEnergy = cur.Energy - old.Energy
			if old.WallMS > 0 {
				delta.Ratio = cur.WallMS / old.WallMS
			}
			if note := staleNote(old, cur); note != "" {
				delta.Verdict, delta.Note = VerdictStale, note+": "+regenerate
			} else if note := regressionNote(old, cur); note != "" {
				delta.Verdict, delta.Note = VerdictRegression, note
			}
		}
		d.Cells = append(d.Cells, delta)
	}
	for _, old := range baseline.Cells {
		if _, ok := current.Cell(old.ID); !ok {
			d.Cells = append(d.Cells, CellDelta{ID: old.ID, OldMS: old.WallMS, Verdict: VerdictMissing, Note: regenerate})
		}
	}
	return d
}

// slamOps is the completed-request count of a cell's slam phase (0 without
// one).
func slamOps(m Measurement) int64 {
	if m.Slam == nil {
		return 0
	}
	return m.Slam.Total.Count
}

// staleNote names the first field showing that the two cells solved
// different instances, or returns "".  A baseline recorded before cells
// carried instance_seed (0) is not checked on it.
func staleNote(old, cur Measurement) string {
	oldInstance := old.InstanceSeed
	if oldInstance == 0 {
		oldInstance = cur.InstanceSeed
	}
	for _, f := range []struct {
		name     string
		old, cur int64
	}{
		{"seed", old.Seed, cur.Seed},
		{"instance_seed", oldInstance, cur.InstanceSeed},
		{"nodes", int64(old.Nodes), int64(cur.Nodes)},
		{"edges", int64(old.Edges), int64(cur.Edges)},
		{"churn_steps", int64(old.ChurnSteps), int64(cur.ChurnSteps)},
		{"slam.total.count", slamOps(old), slamOps(cur)},
	} {
		if f.old != f.cur {
			return fmt.Sprintf("%s %d -> %d", f.name, f.old, f.cur)
		}
	}
	return ""
}

// counter is one lower-is-better gated quantity of a cell pair.
type counter struct {
	name     string
	old, cur float64
	bound    float64 // relative growth tolerated; 0 = exact
	slack    float64 // absolute growth tolerated on top
}

// regressionNote names the first gated counter of cur that is worse than
// old by more than its bound, or returns "".  Every rule is one-sided: an
// improvement always passes.
func regressionNote(old, cur Measurement) string {
	if cur.Energy > old.Energy+energyBound*math.Abs(old.Energy) {
		return fmt.Sprintf("energy %.9g -> %.9g", old.Energy, cur.Energy)
	}
	if old.Converged && !cur.Converged {
		return "converged true -> false"
	}
	if cur.ChurnEnergyGapPct > old.ChurnEnergyGapPct+churnGapBound {
		return fmt.Sprintf("churn_energy_gap_pct %.2f -> %.2f", old.ChurnEnergyGapPct, cur.ChurnEnergyGapPct)
	}
	counters := []counter{
		{"iterations", float64(old.Iterations), float64(cur.Iterations), 0, 0},
		{"alloc_objects", float64(old.AllocObjects), float64(cur.AllocObjects), allocBound, allocObjectsSlack},
		{"alloc_bytes", float64(old.AllocBytes), float64(cur.AllocBytes), allocBound, allocBytesSlack},
		{"mc_alloc_per_run", float64(old.MCAllocPerRun), float64(cur.MCAllocPerRun), allocBound, 0},
		{"churn_dirty_nodes", float64(old.ChurnDirtyNodes), float64(cur.ChurnDirtyNodes), 0, 0},
		{"churn_iterations", float64(old.ChurnIterations), float64(cur.ChurnIterations), 0, 0},
		{"churn_alloc_bytes", float64(old.ChurnAllocBytes), float64(cur.ChurnAllocBytes), allocBound, allocBytesSlack},
	}
	if old.Slam != nil && cur.Slam != nil {
		counters = append(counters, counter{"slam.total.errors", float64(old.Slam.Total.Errors), float64(cur.Slam.Total.Errors), 0, 0})
		if old.Slam.Mem != nil && cur.Slam.Mem != nil {
			counters = append(counters, counter{"slam.mem.alloc_bytes_per_op",
				old.Slam.Mem.AllocBytesPerOp, cur.Slam.Mem.AllocBytesPerOp, slamAllocBound, 0})
		}
	}
	for _, c := range counters {
		if c.cur > c.old*(1+c.bound)+c.slack {
			note := fmt.Sprintf("%s %.0f -> %.0f", c.name, c.old, c.cur)
			if c.bound > 0 {
				note += fmt.Sprintf(" (bound +%g%%)", c.bound*100)
			}
			return note
		}
	}
	return ""
}

// Render returns the diff as aligned text: one row per cell plus a summary
// line.  The layout is covered by a golden-file test, so CI logs stay
// greppable across versions.
func (d Diff) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "baseline diff — suite %s (work counters gate; the ms columns are for the reader)\n", d.Suite)
	idWidth := len("cell")
	for _, c := range d.Cells {
		if len(c.ID) > idWidth {
			idWidth = len(c.ID)
		}
	}
	fmt.Fprintf(&b, "%-*s  %10s  %10s  %7s  %10s  %s\n",
		idWidth, "cell", "old ms", "new ms", "ratio", "Δenergy", "verdict")
	for _, c := range d.Cells {
		old, cur, ratio, energy := "-", "-", "-", "-"
		if c.Verdict != VerdictNew {
			old = fmt.Sprintf("%.1f", c.OldMS)
		}
		if c.Verdict != VerdictMissing {
			cur = fmt.Sprintf("%.1f", c.NewMS)
		}
		if c.Ratio > 0 {
			ratio = fmt.Sprintf("%.2f", c.Ratio)
			energy = fmt.Sprintf("%.3f", c.DeltaEnergy)
		}
		verdict := string(c.Verdict)
		if c.Note != "" {
			verdict += ": " + c.Note
		}
		fmt.Fprintf(&b, "%-*s  %10s  %10s  %7s  %10s  %s\n",
			idWidth, c.ID, old, cur, ratio, energy, verdict)
	}
	counts := d.Counts()
	fmt.Fprintf(&b, "summary: %d regressions, %d errors, %d stale, %d new, %d missing, %d timeouts, %d ok\n",
		counts[VerdictRegression], counts[VerdictError], counts[VerdictStale], counts[VerdictNew],
		counts[VerdictMissing], counts[VerdictTimeout], counts[VerdictOK])
	return b.String()
}

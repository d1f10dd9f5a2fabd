// Command divbench runs a named benchmark suite over the scenario matrix
// (topology × size × solver × attack model), writes the results as
// machine-readable JSON and optionally diffs them against a baseline report,
// exiting nonzero on a wall-clock regression.  It is the binary behind the
// CI perf gate.
//
// Usage:
//
//	divbench -quick                           # the CI suite, writes BENCH_quick.json
//	divbench -suite full -out bench.json      # the paper-scale matrix
//	divbench -quick -baseline BENCH_quick.json -tolerance 0.15
//	divbench -list                            # known suites
//
// The report schema is documented in the README ("Benchmark harness"); the
// diff tolerates relative wall-clock changes up to -tolerance and absolute
// changes below -floor-ms, and never fails on cells that are new or missing
// relative to the baseline (suite edits refresh the baseline on merge).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"netdiversity/internal/scenario"
)

// errRegression distinguishes a perf-gate failure (exit 1 with the diff
// already printed) from usage/runtime errors.
var errRegression = errors.New("wall-clock regression against baseline")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errRegression) {
			fmt.Fprintln(os.Stderr, "divbench:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("divbench", flag.ContinueOnError)
	var (
		suiteName = fs.String("suite", "quick", "benchmark suite to run (see -list)")
		quick     = fs.Bool("quick", false, "shorthand for -suite quick")
		outPath   = fs.String("out", "", "output JSON path (default BENCH_<suite>.json)")
		baseline  = fs.String("baseline", "", "baseline JSON report to diff against")
		tolerance = fs.Float64("tolerance", 0.15, "relative wall-clock regression tolerance")
		floorMS   = fs.Float64("floor-ms", 10, "absolute wall-clock change (ms) below which cells never regress")
		strict    = fs.Bool("strict", false, "gate on the baseline even when it was produced in a different environment")
		seed      = fs.Int64("seed", 0, "override the suite's base seed (0 keeps the suite default)")
		workers   = fs.Int("workers", 0, "override the cell worker pool size (0 keeps the suite default)")
		timeout   = fs.Duration("timeout", 0, "override the per-cell timeout (0 keeps the suite default)")
		list      = fs.Bool("list", false, "list available suites and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, name := range scenario.SuiteNames() {
			fmt.Fprintln(out, name)
		}
		return nil
	}
	if *quick {
		*suiteName = "quick"
	}
	m, err := scenario.Suite(*suiteName)
	if err != nil {
		return err
	}
	if *seed != 0 {
		m.Seed = *seed
	}
	if *workers > 0 {
		m.Workers = *workers
	}
	if *timeout > 0 {
		m.Timeout = *timeout
	}
	path := *outPath
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", m.Name)
	}
	// Load the baseline before the run writes anything: with the default
	// output path, -baseline often names the same file the fresh report is
	// about to replace, and reading it afterwards would diff the run against
	// itself (always a pass).
	var base *scenario.Report
	if *baseline != "" {
		base, err = scenario.ReadFile(*baseline)
		if err != nil {
			return fmt.Errorf("loading baseline: %w", err)
		}
	}

	start := time.Now()
	rep, err := scenario.Run(context.Background(), m)
	if err != nil {
		return err
	}
	if err := rep.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "suite %s: %d cells in %.1fs -> %s\n",
		rep.Suite, len(rep.Cells), time.Since(start).Seconds(), path)
	printSummary(out, rep)
	timedOut := 0
	for _, c := range rep.Cells {
		if c.TimedOut {
			timedOut++
		}
	}
	if timedOut > 0 {
		fmt.Fprintf(out, "%d of %d cells timed out (recorded as timed_out markers, not failures)\n",
			timedOut, len(rep.Cells))
	}
	if failed := rep.Failed(); len(failed) > 0 {
		for _, c := range failed {
			fmt.Fprintf(out, "FAILED %s: %s\n", c.ID, c.Error)
		}
		return fmt.Errorf("%d of %d cells failed", len(failed), len(rep.Cells))
	}

	if base == nil {
		return nil
	}
	return gate(out, base, rep, scenario.DiffOptions{Tolerance: *tolerance, FloorMS: *floorMS}, *strict)
}

// gate prints the diff of a fresh report against the baseline and decides
// the exit status: errRegression when a cell regressed and the two reports
// come from comparable environments (or strict is set).
func gate(out io.Writer, base, rep *scenario.Report, opts scenario.DiffOptions, strict bool) error {
	diff := scenario.Compare(base, rep, opts)
	fmt.Fprint(out, diff.Render())
	if !base.Env.Comparable(rep.Env) && !strict {
		// Relative tolerance absorbs noise on one machine, not the speed gap
		// between machines: gating a runner against a laptop baseline would
		// measure the environment, not the change.  The gate arms itself once
		// the committed baseline comes from the same environment class (e.g.
		// the CI bench job's own artifact).
		fmt.Fprintf(out, "NOTE: baseline environment (%s/%s, %d cpu) differs from this run (%s/%s, %d cpu); diff is informational, not gated (use -strict to gate anyway)\n",
			base.Env.GOOS, base.Env.GOARCH, base.Env.NumCPU,
			rep.Env.GOOS, rep.Env.GOARCH, rep.Env.NumCPU)
		return nil
	}
	if diff.HasRegressions() {
		fmt.Fprintln(out, "FAIL: wall-clock regression against baseline")
		return errRegression
	}
	fmt.Fprintln(out, "PASS: no regression against baseline")
	return nil
}

// printSummary renders a compact per-cell table of the fresh run, plus an
// incremental-vs-full table when the suite has churn cells.
func printSummary(out io.Writer, rep *scenario.Report) {
	idWidth := len("cell")
	churn, scale, slam := false, false, false
	for _, c := range rep.Cells {
		if len(c.ID) > idWidth {
			idWidth = len(c.ID)
		}
		if c.ChurnSteps > 0 {
			churn = true
		}
		if c.Levels > 0 {
			scale = true
		}
		if c.SlamOps > 0 {
			slam = true
		}
	}
	fmt.Fprintf(out, "%-*s  %10s  %12s  %8s  %8s  %8s\n",
		idWidth, "cell", "wall ms", "energy", "mttc", "d1", "allocs")
	for _, c := range rep.Cells {
		if c.Error != "" {
			fmt.Fprintf(out, "%-*s  error: %s\n", idWidth, c.ID, c.Error)
			continue
		}
		if c.TimedOut {
			fmt.Fprintf(out, "%-*s  %10.1f  TIMED OUT\n", idWidth, c.ID, c.WallMS)
			continue
		}
		fmt.Fprintf(out, "%-*s  %10.1f  %12.3f  %8.2f  %8.4f  %8d\n",
			idWidth, c.ID, c.WallMS, c.Energy, c.MTTC, c.Richness, c.AllocObjects)
	}
	if scale {
		fmt.Fprintf(out, "\nscale: multilevel hierarchy vs the flat twin cell\n")
		fmt.Fprintf(out, "%-*s  %10s  %6s  %12s\n",
			idWidth, "cell", "coarsen", "levels", "gap vs flat")
		for _, c := range rep.Cells {
			if c.Levels == 0 {
				continue
			}
			gap := "-"
			if c.EnergyGapVsFlatPct != 0 {
				gap = fmt.Sprintf("%+.2f%%", c.EnergyGapVsFlatPct)
			}
			fmt.Fprintf(out, "%-*s  %8.0fms  %6d  %12s\n",
				idWidth, c.ID, c.CoarsenMS, c.Levels, gap)
		}
	}
	if slam {
		fmt.Fprintf(out, "\nslam: closed-loop multi-tenant load (p99 under contention)\n")
		fmt.Fprintf(out, "%-*s  %5s  %6s  %8s  %9s  %10s  %9s  %9s\n",
			idWidth, "cell", "t/w", "errors", "rps", "read p99", "delta p99", "p999", "alloc/op")
		for _, c := range rep.Cells {
			if c.SlamOps == 0 {
				continue
			}
			fmt.Fprintf(out, "%-*s  %2d/%-2d  %6d  %8.1f  %7.2fms  %8.2fms  %7.2fms  %8.0fB\n",
				idWidth, c.ID, c.SlamTenants, c.SlamWorkers, c.SlamErrors, c.SlamRPS,
				c.SlamReadP99MS, c.SlamDeltaP99MS, c.SlamP999MS, c.SlamAllocPerOp)
		}
	}
	if !churn {
		return
	}
	fmt.Fprintf(out, "\nchurn: incremental Reoptimize vs full re-solve per delta step\n")
	fmt.Fprintf(out, "%-*s  %5s  %10s  %10s  %8s  %9s  %9s\n",
		idWidth, "cell", "steps", "inc ms", "full ms", "speedup", "gap %", "changed")
	for _, c := range rep.Cells {
		if c.ChurnSteps == 0 {
			continue
		}
		fmt.Fprintf(out, "%-*s  %5d  %10.1f  %10.1f  %7.1fx  %9.3f  %9.4f\n",
			idWidth, c.ID, c.ChurnSteps, c.ChurnIncrementalMS, c.ChurnFullMS,
			c.ChurnSpeedup, c.ChurnEnergyGapPct, c.ChurnChangedFrac)
	}
}

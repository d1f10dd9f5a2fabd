// Command divbench runs a named benchmark suite over the scenario matrix
// (topology × size × solver × attack model), writes the results as
// machine-readable JSON and optionally gates them against a baseline report,
// exiting nonzero when a work counter regressed.  It is the binary behind the
// CI perf gate and the tier-1 test that holds the checked-in baselines.
//
// Usage:
//
//	divbench                                  # the quick suite, writes BENCH_quick.json
//	divbench -suite full -out bench.json      # the paper-scale matrix
//	divbench -baseline BENCH_quick.json       # gate the quick suite; writes nothing
//	divbench -list                            # known suites
//
// The report schema and the gate's rules are documented in
// docs/BENCH_SCHEMA.md.  The gate compares only machine-independent counters
// (energy, iterations, allocations, churn work, slam errors), each against a
// bound fixed in internal/scenario, so it is armed on every machine; a cell
// the baseline does not describe (new, missing, different instance) fails
// until the baseline is regenerated with a plain `divbench -suite S`.
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
var errRegression = errors.New("work-counter regression against baseline")

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
		outPath   = fs.String("out", "", "output JSON path (default BENCH_<suite>.json; with -baseline, nothing is written unless set)")
		baseline  = fs.String("baseline", "", "baseline JSON report to gate against")
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
	// A gated run never writes unless told where: the default path is the
	// checked-in baseline itself, and replacing it with the numbers it just
	// failed would make the next run pass.
	path := *outPath
	var base *scenario.Report
	if *baseline != "" {
		base, err = scenario.ReadFile(*baseline)
		if err != nil {
			return fmt.Errorf("loading baseline: %w", err)
		}
	} else if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", m.Name)
	}

	start := time.Now()
	rep, err := scenario.Run(context.Background(), m)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "suite %s: %d cells in %.1fs", rep.Suite, len(rep.Cells), time.Since(start).Seconds())
	if path != "" {
		if err := rep.WriteFile(path); err != nil {
			return err
		}
		fmt.Fprintf(out, " -> %s", path)
	}
	fmt.Fprintln(out)
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
	return gate(out, base, rep)
}

// gate prints the diff of a fresh report against the baseline and decides
// the exit status: errRegression when any cell fails it.
func gate(out io.Writer, base, rep *scenario.Report) error {
	diff := scenario.Compare(base, rep)
	fmt.Fprint(out, diff.Render())
	if diff.Fails() {
		fmt.Fprintln(out, "FAIL:", errRegression)
		return errRegression
	}
	fmt.Fprintln(out, "PASS: every gated counter within its bound of the baseline")
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
		if c.Slam != nil {
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
		fmt.Fprintf(out, "\nslam: closed-loop multi-tenant load\n")
		for _, c := range rep.Cells {
			if c.Slam != nil {
				fmt.Fprintf(out, "%s\n", c.ID)
				c.Slam.Print(out)
			}
		}
	}
	if !churn {
		return
	}
	fmt.Fprintf(out, "\nchurn: incremental Reoptimize vs full re-solve per delta step\n")
	fmt.Fprintf(out, "%-*s  %5s  %10s  %10s  %8s  %9s  %9s  %7s  %6s  %9s\n",
		idWidth, "cell", "steps", "inc ms", "full ms", "speedup", "gap %", "changed", "dirty", "sweeps", "alloc KiB")
	for _, c := range rep.Cells {
		if c.ChurnSteps == 0 {
			continue
		}
		fmt.Fprintf(out, "%-*s  %5d  %10.1f  %10.1f  %7.1fx  %9.3f  %9.4f  %7d  %6d  %9d\n",
			idWidth, c.ID, c.ChurnSteps, c.ChurnIncrementalMS, c.ChurnFullMS,
			c.ChurnSpeedup, c.ChurnEnergyGapPct, c.ChurnChangedFrac,
			c.ChurnDirtyNodes, c.ChurnIterations, c.ChurnAllocBytes>>10)
	}
}

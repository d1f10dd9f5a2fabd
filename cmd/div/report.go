package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"netdiversity"
	"netdiversity/internal/core"
	"netdiversity/internal/netmodel"
)

// reportCmd writes a Markdown security-assessment report: the optimal
// diversification (and, when the problem is constrained, the constrained
// one) against the random and homogeneous deployments, each evaluated with
// d_bn, the d1/d3 metrics, the simulated and analytic MTTC and the
// attacker-knowledge evaluation.  -dot-dir adds Graphviz renderings.
func reportCmd(fs *flag.FlagSet, c *common) func(io.Writer) error {
	outPath := fs.String("out", "", "write the Markdown report to this file (default: stdout)")
	dotDir := fs.String("dot-dir", "", "write Graphviz renderings into this directory")
	return func(stdout io.Writer) error {
		net, cs, sim, err := c.load()
		if err != nil {
			return err
		}
		entry, target := netmodel.HostID(c.entry), netmodel.HostID(c.target)
		for _, h := range []netmodel.HostID{entry, target} {
			if _, ok := net.Host(h); !ok {
				return fmt.Errorf("host %q not in the network", h)
			}
		}
		report, assignments, err := buildReport(c, net, sim, cs, entry, target)
		if err != nil {
			return err
		}

		if *dotDir != "" {
			if err := os.MkdirAll(*dotDir, 0o755); err != nil {
				return err
			}
			for name, a := range assignments {
				path := filepath.Join(*dotDir, name+".dot")
				dot, err := netmodel.Dot(net, netmodel.DotOptions{
					Assignment:     a,
					HighlightHosts: []netmodel.HostID{entry, target},
					Name:           name,
				})
				if err != nil {
					return err
				}
				if err := os.WriteFile(path, []byte(dot), 0o644); err != nil {
					return err
				}
				report += fmt.Sprintf("* Graphviz rendering of the %s assignment: `%s`\n", name, path)
			}
		}

		if *outPath == "" {
			_, err := io.WriteString(stdout, report)
			return err
		}
		if err := os.WriteFile(*outPath, []byte(report), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", *outPath)
		return nil
	}
}

// buildReport computes the assignments and renders the Markdown report.
func buildReport(c *common, net *netmodel.Network, sim *netdiversity.SimilarityTable, cs *netmodel.ConstraintSet,
	entry, target netmodel.HostID) (string, map[string]*netmodel.Assignment, error) {
	solve := func(cs *netmodel.ConstraintSet) (core.Result, error) {
		opt, err := c.optimizer(net, sim, cs)
		if err != nil {
			return core.Result{}, err
		}
		return opt.Optimize(context.Background())
	}
	optimalRes, err := solve(nil)
	if err != nil {
		return "", nil, err
	}
	mono, err := netdiversity.MonoAssignment(net, nil)
	if err != nil {
		return "", nil, err
	}
	random, err := netdiversity.RandomAssignment(net, nil, c.seed)
	if err != nil {
		return "", nil, err
	}
	assignments := map[string]*netmodel.Assignment{
		"optimal": optimalRes.Assignment,
		"mono":    mono,
		"random":  random,
	}
	order := []string{"optimal"}
	if cs != nil {
		cres, err := solve(cs)
		if err != nil {
			return "", nil, err
		}
		assignments["constrained"] = cres.Assignment
		order = append(order, "constrained")
	}
	order = append(order, "random", "mono")

	var body []byte
	buf := func(format string, args ...any) {
		body = fmt.Appendf(body, format, args...)
	}

	buf("# Network diversification assessment\n\n")
	buf("Generated by div report on %s.\n\n", time.Now().Format("2006-01-02"))
	buf("* Hosts: %d, links: %d\n", net.NumHosts(), net.NumLinks())
	buf("* Attack scenario: entry `%s`, target `%s`\n", entry, target)
	buf("* Optimiser: TRW-S, %d-node MRF with %d pairwise factors, solved in %s\n\n",
		optimalRes.Nodes, optimalRes.Edges, optimalRes.Runtime.Round(time.Millisecond))

	buf("## Assignment comparison\n\n")
	buf("| assignment | pairwise similarity cost | d_bn | d1 richness | d3 avg effort | MTTC (sim) | MTTC (analytic) |\n")
	buf("|---|---|---|---|---|---|---|\n")
	for _, name := range order {
		a := assignments[name]
		cost, err := netdiversity.PairwiseSimilarityCost(net, sim, a)
		if err != nil {
			return "", nil, err
		}
		div, err := netdiversity.Diversity(net, a, sim,
			netdiversity.DiversityConfig{Entry: entry, Target: target},
			netdiversity.InferenceOptions{Seed: c.seed, Samples: 100000})
		if err != nil {
			return "", nil, err
		}
		summary, err := netdiversity.DiversityMetrics(net, a, sim,
			netdiversity.EffortConfig{Entry: entry, Target: target, MaxExtraHops: 1})
		if err != nil {
			return "", nil, err
		}
		simulator, err := netdiversity.NewSimulator(net, a, sim)
		if err != nil {
			return "", nil, err
		}
		mttc, err := simulator.Run(netdiversity.SimulationConfig{
			Entry: entry, Target: target, Runs: c.runs, Seed: c.seed,
		})
		if err != nil {
			return "", nil, err
		}
		est, err := simulator.EstimateMTTC(netdiversity.SimulationConfig{Entry: entry, Target: target})
		if err != nil {
			return "", nil, err
		}
		buf("| %s | %.3f | %.4f | %.4f | %.3f | %.2f | %.2f |\n",
			name, cost, div.Diversity, summary.Richness.Overall, summary.AverageEffort, mttc.MTTC, est.MTTC)
	}

	buf("\n## Attacker knowledge sensitivity (MTTC in ticks)\n\n")
	buf("| assignment | blind | partial | full reconnaissance |\n|---|---|---|---|\n")
	for _, name := range order {
		ev, err := netdiversity.NewAdversaryEvaluator(net, assignments[name], sim)
		if err != nil {
			return "", nil, err
		}
		results, err := ev.Compare(netdiversity.AdversaryConfig{
			Entry: entry, Target: target, Runs: c.runs, Seed: c.seed,
		})
		if err != nil {
			return "", nil, err
		}
		buf("| %s | %.2f | %.2f | %.2f |\n", name, results[0].MTTC, results[1].MTTC, results[2].MTTC)
	}

	buf("\n## Recommended changes\n\n")
	buf("The optimal assignment changes the following host/service installations relative to the homogeneous deployment:\n\n")
	diffs := mono.Diff(optimalRes.Assignment)
	limit := min(len(diffs), 40)
	for _, d := range diffs[:limit] {
		buf("* %s\n", d)
	}
	if len(diffs) > limit {
		buf("* … and %d more\n", len(diffs)-limit)
	}
	buf("\n")
	return string(body), assignments, nil
}

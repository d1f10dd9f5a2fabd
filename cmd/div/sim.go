package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"netdiversity"
	"netdiversity/internal/netmodel"
)

// simCmd evaluates one assignment of the loaded problem with the
// malware-propagation simulation (MTTC) and the BN diversity metric d_bn.
// The optimal, random and mono assignments honour the loaded constraints.
func simCmd(fs *flag.FlagSet, c *common) func(io.Writer) error {
	kind := fs.String("assignment", "optimal", "assignment to evaluate: optimal, random, mono")
	file := fs.String("assignment-file", "", "path to an assignment JSON (overrides -assignment)")
	maxTicks := fs.Int("max-ticks", 500, "maximum ticks per simulation run")
	pavg := fs.Float64("pavg", 0.2, "average zero-day propagation rate")
	return func(out io.Writer) error {
		net, cs, sim, err := c.load()
		if err != nil {
			return err
		}
		var a *netmodel.Assignment
		switch {
		case *file != "":
			data, rerr := os.ReadFile(*file)
			if rerr != nil {
				return rerr
			}
			a = netmodel.NewAssignment()
			err = json.Unmarshal(data, a)
		case *kind == "optimal":
			opt, oerr := c.optimizer(net, sim, cs)
			if oerr != nil {
				return oerr
			}
			res, oerr := opt.Optimize(context.Background())
			a, err = res.Assignment, oerr
		case *kind == "random":
			a, err = netdiversity.RandomAssignment(net, cs, c.seed)
		case *kind == "mono":
			a, err = netdiversity.MonoAssignment(net, cs)
		default:
			err = fmt.Errorf("unknown assignment %q", *kind)
		}
		if err != nil {
			return err
		}

		entry, target := netmodel.HostID(c.entry), netmodel.HostID(c.target)
		simulator, err := netdiversity.NewSimulator(net, a, sim)
		if err != nil {
			return err
		}
		simRes, err := simulator.Run(netdiversity.SimulationConfig{
			Entry: entry, Target: target, Runs: c.runs, MaxTicks: *maxTicks, PAvg: *pavg, Seed: c.seed,
		})
		if err != nil {
			return err
		}
		divRes, err := netdiversity.Diversity(net, a, sim, netdiversity.DiversityConfig{
			Entry: entry, Target: target, PAvg: *pavg,
		}, netdiversity.InferenceOptions{Seed: c.seed})
		if err != nil {
			return err
		}

		fmt.Fprintf(out, "assignment=%s entry=%s target=%s\n", *kind, entry, target)
		fmt.Fprintf(out, "mttc=%.3f median=%.1f p90=%.1f success_rate=%.3f mean_infected=%.2f (%d runs)\n",
			simRes.MTTC, simRes.MedianTTC, simRes.P90TTC, simRes.SuccessRate, simRes.MeanInfected, simRes.Runs)
		fmt.Fprintf(out, "diversity d_bn=%.5f logP'=%.3f logP=%.3f\n",
			divRes.Diversity, divRes.LogPTargetNoSim, divRes.LogPTarget)
		return nil
	}
}

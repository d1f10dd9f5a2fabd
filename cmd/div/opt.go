package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"netdiversity/internal/core"
	"netdiversity/internal/netmodel"
)

// optCmd computes the optimal diversification and prints the assignment.
// -parallel N > 1 runs the partition-solve-merge-refine pipeline with N
// blocks on a pool of -workers goroutines.
func optCmd(fs *flag.FlagSet, c *common) func(io.Writer) error {
	outPath := fs.String("out", "", "write the assignment as JSON to this file")
	dotPath := fs.String("dot", "", "write a Graphviz rendering of the network with the assignment to this file")
	parallel := fs.Int("parallel", 1, "partition the network into this many blocks and optimise them concurrently (<=1 runs sequentially)")
	fs.IntVar(&c.workers, "workers", 1, "blocks -parallel solves at once")
	return func(out io.Writer) error {
		net, cs, sim, err := c.load()
		if err != nil {
			return err
		}
		opt, err := c.optimizer(net, sim, cs)
		if err != nil {
			return err
		}
		var res core.Result
		if *parallel > 1 {
			pres, err := opt.OptimizeParallel(context.Background(), *parallel)
			if err != nil {
				return err
			}
			res = pres.Result
			fmt.Fprintf(out, "parallel blocks=%d cut_links=%d pool_workers=%d\n",
				pres.Blocks, pres.CutLinks, pres.Workers)
		} else if res, err = opt.Optimize(context.Background()); err != nil {
			return err
		}

		fmt.Fprintf(out, "hosts=%d links=%d mrf_nodes=%d mrf_edges=%d\n",
			net.NumHosts(), net.NumLinks(), res.Nodes, res.Edges)
		fmt.Fprintf(out, "solver=%s energy=%.4f iterations=%d converged=%v runtime=%s\n",
			c.solver, res.Energy, res.Iterations, res.Converged, res.Runtime)
		pairCost, err := core.PairwiseSimilarityCost(net, sim, res.Assignment)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "pairwise_similarity_cost=%.4f\n", pairCost)
		if len(res.ConstraintViolations) > 0 {
			fmt.Fprintf(out, "constraint_violations=%d\n", len(res.ConstraintViolations))
			for _, v := range res.ConstraintViolations {
				fmt.Fprintf(out, "  violation: %s\n", v)
			}
		}
		fmt.Fprint(out, res.Assignment.String())

		if *outPath != "" {
			data, err := json.MarshalIndent(res.Assignment, "", "  ")
			if err != nil {
				return fmt.Errorf("encode assignment: %w", err)
			}
			if err := os.WriteFile(*outPath, data, 0o644); err != nil {
				return err
			}
		}
		if *dotPath != "" {
			dot, err := netmodel.Dot(net, netmodel.DotOptions{Assignment: res.Assignment, Name: "diversified"})
			if err != nil {
				return err
			}
			return os.WriteFile(*dotPath, []byte(dot), 0o644)
		}
		return nil
	}
}

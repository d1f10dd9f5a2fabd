// Scalability: generate increasingly large random networks (the workload of
// Tables VII-IX) and report how long the TRW-S optimisation takes, together
// with the quality of the produced assignment relative to random and mono
// baselines.
//
// Run with:
//
//	go run ./examples/scalability [-hosts 1000] [-degree 20] [-services 10]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"netdiversity"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		maxHosts = flag.Int("hosts", 800, "largest network size to optimise")
		degree   = flag.Int("degree", 10, "average degree of the random networks")
		services = flag.Int("services", 5, "services per host")
	)
	flag.Parse()

	sizes := []int{100, 200, 400}
	for s := 800; s <= *maxHosts; s *= 2 {
		sizes = append(sizes, s)
	}

	fmt.Printf("%-8s %-8s %-10s %-12s %-14s %-14s %-14s\n",
		"hosts", "links", "mrf nodes", "seconds", "optimal cost", "random cost", "mono cost")
	for _, hosts := range sizes {
		cfg := netdiversity.RandomNetworkConfig{
			Hosts:              hosts,
			Degree:             *degree,
			Services:           *services,
			ProductsPerService: 4,
			Seed:               int64(hosts),
		}
		net, err := netdiversity.RandomNetwork(cfg)
		if err != nil {
			return err
		}
		sim := netdiversity.SyntheticSimilarity(cfg, 0.6)

		opt, err := netdiversity.NewOptimizer(net, sim, netdiversity.OptimizerOptions{
			MaxIterations: 30,
		})
		if err != nil {
			return err
		}
		res, err := opt.Optimize(context.Background())
		if err != nil {
			return err
		}
		optCost, err := netdiversity.PairwiseSimilarityCost(net, sim, res.Assignment)
		if err != nil {
			return err
		}
		random, err := netdiversity.RandomAssignment(net, nil, 1)
		if err != nil {
			return err
		}
		randomCost, err := netdiversity.PairwiseSimilarityCost(net, sim, random)
		if err != nil {
			return err
		}
		mono, err := netdiversity.MonoAssignment(net, nil)
		if err != nil {
			return err
		}
		monoCost, err := netdiversity.PairwiseSimilarityCost(net, sim, mono)
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %-8d %-10d %-12.3f %-14.1f %-14.1f %-14.1f\n",
			hosts, net.NumLinks(), res.Nodes, res.Runtime.Seconds(), optCost, randomCost, monoCost)
	}
	fmt.Println("\nThe optimisation time grows roughly linearly with hosts and edges, and the")
	fmt.Println("optimal assignment's pairwise similarity cost stays well below both baselines.")
	return nil
}

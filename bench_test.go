package netdiversity_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"netdiversity"
	"netdiversity/internal/experiments"
)

// benchConfig is the quick experiment profile used by every per-table
// benchmark; run `div tables -full` for the paper-sized sweeps.
func benchConfig() experiments.Config {
	return experiments.Config{Seed: 42}
}

// benchmarkExperiment runs one experiment once per benchmark iteration.
func benchmarkExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, benchConfig()); err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
	}
}

// BenchmarkFigure1 regenerates the motivational-example probabilities
// (Fig. 1: 0 / ≈0.125 / ≈0.5).
func BenchmarkFigure1(b *testing.B) { benchmarkExperiment(b, "fig1") }

// BenchmarkFigure2 optimises the 6-host example network of Section IV
// (Fig. 2).
func BenchmarkFigure2(b *testing.B) { benchmarkExperiment(b, "fig2") }

// BenchmarkTableII regenerates the OS similarity table from a synthetic NVD
// corpus (Table II).
func BenchmarkTableII(b *testing.B) { benchmarkExperiment(b, "table2") }

// BenchmarkTableIII regenerates the browser similarity table (Table III).
func BenchmarkTableIII(b *testing.B) { benchmarkExperiment(b, "table3") }

// BenchmarkFigure4 computes the three case-study optimal assignments
// (Fig. 4(a)-(c)).
func BenchmarkFigure4(b *testing.B) { benchmarkExperiment(b, "fig4") }

// BenchmarkTableV evaluates the BN diversity metric of the five case-study
// assignments (Table V).
func BenchmarkTableV(b *testing.B) { benchmarkExperiment(b, "table5") }

// BenchmarkTableVI runs the MTTC propagation simulation for five entry points
// and four assignments (Table VI).
func BenchmarkTableVI(b *testing.B) { benchmarkExperiment(b, "table6") }

// BenchmarkTableVII measures optimisation time over increasing host counts
// (Table VII, quick profile).
func BenchmarkTableVII(b *testing.B) { benchmarkExperiment(b, "table7") }

// BenchmarkTableVIII measures optimisation time over increasing degree
// (Table VIII, quick profile).
func BenchmarkTableVIII(b *testing.B) { benchmarkExperiment(b, "table8") }

// BenchmarkTableIX measures optimisation time over increasing services per
// host (Table IX, quick profile).
func BenchmarkTableIX(b *testing.B) { benchmarkExperiment(b, "table9") }

// BenchmarkSolverAblation compares TRW-S, BP, ICM, annealing and the
// non-optimising baselines on one instance (experiment A1).
func BenchmarkSolverAblation(b *testing.B) { benchmarkExperiment(b, "ablation") }

// BenchmarkMetricsTable evaluates the Zhang-style d1/d2/d3 diversity metrics
// on the five case-study assignments (library extension).
func BenchmarkMetricsTable(b *testing.B) { benchmarkExperiment(b, "metrics") }

// BenchmarkAdversaryTable runs the attacker-knowledge-level evaluation
// (library extension implementing the paper's stated future work).
func BenchmarkAdversaryTable(b *testing.B) { benchmarkExperiment(b, "adversary") }

// BenchmarkTopologyTable optimises uniform, scale-free and small-world
// networks of the same size (library extension).
func BenchmarkTopologyTable(b *testing.B) { benchmarkExperiment(b, "topology") }

// BenchmarkConvergenceTable traces TRW-S and BP best energies per iteration
// on the case-study MRF (library extension).
func BenchmarkConvergenceTable(b *testing.B) { benchmarkExperiment(b, "convergence") }

// BenchmarkCostTable sweeps the diversity-versus-deployment-cost trade-off on
// the case study (library extension).
func BenchmarkCostTable(b *testing.B) { benchmarkExperiment(b, "cost") }

// BenchmarkOptimizeCaseStudy measures a single TRW-S optimisation of the
// Stuxnet case-study network (the core operation behind Fig. 4).
func BenchmarkOptimizeCaseStudy(b *testing.B) {
	net, err := netdiversity.CaseStudyNetwork()
	if err != nil {
		b.Fatal(err)
	}
	sim := netdiversity.PaperSimilarity()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err := netdiversity.NewOptimizer(net, sim, netdiversity.OptimizerOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := opt.Optimize(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeRandom1000 measures one optimisation of a 1000-host
// random network (one cell of the Table VII sweep at paper scale for the
// mid-density profile with reduced services).
func BenchmarkOptimizeRandom1000(b *testing.B) {
	cfg := netdiversity.RandomNetworkConfig{Hosts: 1000, Degree: 10, Services: 5, ProductsPerService: 4, Seed: 9}
	net, err := netdiversity.RandomNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sim := netdiversity.SyntheticSimilarity(cfg, 0.6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err := netdiversity.NewOptimizer(net, sim, netdiversity.OptimizerOptions{MaxIterations: 20})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := opt.Optimize(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeParallel measures the partitioned (4-block) optimisation
// of a 1000-host random network — the multi-level parallel mode of
// Section V-C.
func BenchmarkOptimizeParallel(b *testing.B) {
	cfg := netdiversity.RandomNetworkConfig{Hosts: 1000, Degree: 10, Services: 5, ProductsPerService: 4, Seed: 9}
	net, err := netdiversity.RandomNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sim := netdiversity.SyntheticSimilarity(cfg, 0.6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err := netdiversity.NewOptimizer(net, sim, netdiversity.OptimizerOptions{MaxIterations: 20, Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := opt.OptimizeParallel(context.Background(), 4); err != nil {
			b.Fatal(err)
		}
	}
}

// solverBenchCase builds the random network and similarity table used by the
// per-solver benchmarks (netgen workloads at increasing scale).
func solverBenchCase(b *testing.B, hosts int) (*netdiversity.Network, *netdiversity.SimilarityTable) {
	b.Helper()
	cfg := netdiversity.RandomNetworkConfig{
		Hosts:              hosts,
		Degree:             8,
		Services:           3,
		ProductsPerService: 4,
		Seed:               9,
	}
	net, err := netdiversity.RandomNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return net, netdiversity.SyntheticSimilarity(cfg, 0.6)
}

// benchmarkSolver runs one registered solver over netgen networks at ~50,
// 200 and 1000 hosts so the unified-driver refactor and the flat MRF
// representation stay measurable per algorithm.
func benchmarkSolver(b *testing.B, solver netdiversity.Solver) {
	for _, hosts := range []int{50, 200, 1000} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			net, sim := solverBenchCase(b, hosts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt, err := netdiversity.NewOptimizer(net, sim, netdiversity.OptimizerOptions{
					Solver:        solver,
					MaxIterations: 10,
					Seed:          1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := opt.Optimize(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolverTRWS measures the TRW-S solver through the unified registry.
func BenchmarkSolverTRWS(b *testing.B) { benchmarkSolver(b, netdiversity.SolverTRWS) }

// BenchmarkSolverBP measures loopy belief propagation.
func BenchmarkSolverBP(b *testing.B) { benchmarkSolver(b, netdiversity.SolverBP) }

// BenchmarkSolverICM measures ICM local search.
func BenchmarkSolverICM(b *testing.B) { benchmarkSolver(b, netdiversity.SolverICM) }

// BenchmarkSolverAnneal measures the simulated-annealing variant.
func BenchmarkSolverAnneal(b *testing.B) { benchmarkSolver(b, netdiversity.SolverAnneal) }

// BenchmarkSequentialVsPartitioned compares a full sequential TRW-S run with
// the partition-solve-merge-refine pipeline on the same 1000-host network —
// the multi-level parallel mode of Section V-C.
func BenchmarkSequentialVsPartitioned(b *testing.B) {
	net, sim := solverBenchCase(b, 1000)
	newOpt := func(b *testing.B, workers int) *netdiversity.Optimizer {
		opt, err := netdiversity.NewOptimizer(net, sim, netdiversity.OptimizerOptions{
			MaxIterations: 10,
			Seed:          1,
			Workers:       workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		return opt
	}
	b.Run("sequential", func(b *testing.B) {
		opt := newOpt(b, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := opt.Optimize(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("partitioned-8", func(b *testing.B) {
		opt := newOpt(b, runtime.NumCPU())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := opt.OptimizeParallel(context.Background(), 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDiversityMetric measures one d_bn evaluation on the case study.
func BenchmarkDiversityMetric(b *testing.B) {
	net, err := netdiversity.CaseStudyNetwork()
	if err != nil {
		b.Fatal(err)
	}
	sim := netdiversity.PaperSimilarity()
	mono, err := netdiversity.MonoAssignment(net, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := netdiversity.Diversity(net, mono, sim, netdiversity.DiversityConfig{
			Entry:  "c4",
			Target: netdiversity.CaseStudyTarget(),
		}, netdiversity.InferenceOptions{Samples: 50000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttackSimulation measures one 200-run MTTC campaign on the case
// study (one cell of Table VI).
func BenchmarkAttackSimulation(b *testing.B) {
	net, err := netdiversity.CaseStudyNetwork()
	if err != nil {
		b.Fatal(err)
	}
	sim := netdiversity.PaperSimilarity()
	mono, err := netdiversity.MonoAssignment(net, nil)
	if err != nil {
		b.Fatal(err)
	}
	simulator, err := netdiversity.NewSimulator(net, mono, sim)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := simulator.Run(netdiversity.SimulationConfig{
			Entry: "c4", Target: "t5", Runs: 200, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyntheticNVD measures regenerating the synthetic CVE corpus for
// the OS similarity table (the substrate behind Tables II/III).
func BenchmarkSyntheticNVD(b *testing.B) {
	table := netdiversity.PaperOSTable()
	for i := 0; i < b.N; i++ {
		db, err := netdiversity.SyntheticNVD(table, 1999)
		if err != nil {
			b.Fatal(err)
		}
		netdiversity.BuildSimilarityTable(db, table.Products(), netdiversity.VulnFilter{})
	}
}

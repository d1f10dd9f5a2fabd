package experiments

import (
	"context"
	"fmt"
	"time"

	"netdiversity/internal/baseline"
	"netdiversity/internal/core"
	"netdiversity/internal/netgen"
	"netdiversity/internal/netmodel"
	"netdiversity/internal/scenario"
)

// Ablation compares the solvers (TRW-S, loopy BP, ICM, simulated annealing)
// and the non-optimising baselines (greedy colouring, random, mono) on the
// same diversification instance: achieved objective energy, pairwise
// similarity cost and wall-clock time.  It is one of the library's own
// experiments (README "Experiments"), not a paper table, and backs the
// paper's design choice of TRW-S in Section V-C.
func Ablation(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	hosts, degree, services := 120, 8, 3
	if cfg.Full {
		hosts, degree, services = 500, 16, 5
	}
	genCfg := netgen.RandomConfig{
		Hosts:              hosts,
		Degree:             degree,
		Services:           services,
		ProductsPerService: 4,
		Seed:               cfg.Seed,
	}
	net, err := netgen.Random(genCfg)
	if err != nil {
		return nil, err
	}
	sim := netgen.SyntheticSimilarity(genCfg, 0.6)

	t := &Table{
		ID:    "ablation",
		Title: "Solver ablation on one random diversification instance",
		Columns: []string{
			"method", "energy (Eq.1)", "pairwise sim cost", "seconds", "iterations", "converged",
		},
	}

	evalOpt, err := core.NewOptimizer(net, sim, core.Options{})
	if err != nil {
		return nil, err
	}
	addAssignment := func(name string, a *netmodel.Assignment, seconds float64, iters int, converged string) error {
		energy, err := evalOpt.Energy(a)
		if err != nil {
			return err
		}
		pc, err := core.PairwiseSimilarityCost(net, sim, a)
		if err != nil {
			return err
		}
		t.AddRow(name, formatFloat(energy, 3), formatFloat(pc, 3),
			formatSeconds(seconds), fmt.Sprint(iters), converged)
		return nil
	}

	// The solver runs execute through scenario.Exec — the same path the
	// benchmark suites measure — on one shared network instance.
	type solverRun struct {
		name   string
		solver string
		polish bool
	}
	runs := []solverRun{
		{"trws (raw)", "trws", false},
		{"trws + local polish", "trws", true},
		{"bp (raw)", "bp", false},
		{"bp + local polish", "bp", true},
		{"icm", "icm", false},
		{"anneal", "anneal", false},
	}
	for _, r := range runs {
		out, err := scenario.Exec(context.Background(), net, sim, scenario.Cell{
			ID:            "ablation/" + r.name,
			Solver:        r.solver,
			MaxIterations: 40,
			Seed:          cfg.Seed,
			DisablePolish: !r.polish,
		})
		if err != nil {
			return nil, err
		}
		if err := addAssignment(r.name, out.Assignment, out.WallMS/1000,
			out.Iterations, fmt.Sprint(out.Converged)); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	greedy, err := baseline.GreedyColoring(net, sim, nil)
	if err != nil {
		return nil, err
	}
	if err := addAssignment("greedy-coloring", greedy, time.Since(start).Seconds(), 1, "n/a"); err != nil {
		return nil, err
	}
	random, err := baseline.Random(net, nil, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := addAssignment("random", random, 0, 0, "n/a"); err != nil {
		return nil, err
	}
	mono, err := baseline.Mono(net, nil)
	if err != nil {
		return nil, err
	}
	if err := addAssignment("mono", mono, 0, 0, "n/a"); err != nil {
		return nil, err
	}

	t.AddNote("instance: %d hosts, degree %d, %d services, 4 products per service, seed %d",
		hosts, degree, services, cfg.Seed)
	t.AddNote("what the rows measure: every solver row starts from the greedy-colouring warm start and keeps the best labeling it has seen, so none is worse than greedy-coloring; the (raw) rows skip only the final ICM polish, so a raw row equal to greedy-coloring means that solver's decodes never beat the colouring; the polished rows and icm are ICM descents from it; anneal adds random restarts and uphill moves and spends the most sweeps; mono is the worst")
	return t, nil
}

package icm

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"netdiversity/internal/mrf"
	"netdiversity/internal/solve"
)

// run solves g with this package's kernel through the shared driver.
func run(g *mrf.Graph, opts solve.Options) (mrf.Solution, error) {
	return solve.Run(context.Background(), g, opts, &Kernel{})
}

func randomGraph(t *testing.T, rng *rand.Rand, nodes, labels int) *mrf.Graph {
	t.Helper()
	counts := make([]int, nodes)
	for i := range counts {
		counts[i] = labels
	}
	g, err := mrf.NewGraph(counts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		for l := 0; l < labels; l++ {
			_ = g.SetUnary(i, l, rng.Float64())
		}
	}
	for i := 0; i < nodes; i++ {
		cost := make([][]float64, labels)
		for a := range cost {
			cost[a] = make([]float64, labels)
			for b := range cost[a] {
				cost[a][b] = rng.Float64()
			}
		}
		if _, err := g.AddEdge(i, (i+1)%nodes, cost); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestSolveNil(t *testing.T) {
	if _, err := run(nil, solve.Options{}); !errors.Is(err, solve.ErrNilGraph) {
		t.Errorf("nil graph should return ErrNilGraph, got %v", err)
	}
	bad, _ := mrf.NewGraph([]int{2})
	_ = bad.SetUnary(0, 0, math.NaN())
	if _, err := run(bad, solve.Options{}); err == nil {
		t.Error("invalid graph should be rejected")
	}
}

func TestSolveImprovesOverGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(t, rng, 10, 3)
		sol, err := run(g, solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		greedy := g.MustEnergy(g.GreedyLabeling())
		if sol.Energy > greedy+1e-9 {
			t.Errorf("ICM energy %v worse than its greedy start %v", sol.Energy, greedy)
		}
		if !sol.Converged {
			t.Error("plain ICM should converge (reach a local optimum)")
		}
	}
}

// TestSolveRestartsAndAnnealing pins the two registry entries' schedules:
// "icm" is one descent that stops at its local optimum, "anneal" runs all
// annealRestarts restarts to their sweep budget (annealing never reports a
// local optimum) and, tracking the best labeling seen, is not worse here.
func TestSolveRestartsAndAnnealing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(t, rng, 12, 4)
	opts := solve.Options{Seed: 1, MaxIterations: 20}
	single, err := solve.Solve(context.Background(), "icm", g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !single.Converged || single.Iterations >= opts.MaxIterations {
		t.Errorf("icm should stop at a local optimum within %d sweeps: %d sweeps, converged %v",
			opts.MaxIterations, single.Iterations, single.Converged)
	}
	annealed, err := solve.Solve(context.Background(), "anneal", g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := annealRestarts * opts.MaxIterations; annealed.Iterations != want {
		t.Errorf("anneal ran %d sweeps, want %d restarts x %d", annealed.Iterations, annealRestarts, opts.MaxIterations)
	}
	if annealed.Energy > single.Energy+1e-9 {
		t.Errorf("annealing tracks the best-seen labeling and should not be worse: %v vs %v",
			annealed.Energy, single.Energy)
	}
}

func TestSolveDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGraph(t, rng, 10, 3)
	for _, name := range []string{"icm", "anneal"} {
		a, err := solve.Solve(context.Background(), name, g, solve.Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		b, err := solve.Solve(context.Background(), name, g, solve.Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if a.Energy != b.Energy || !slices.Equal(a.Labels, b.Labels) || a.Iterations != b.Iterations {
			t.Errorf("%s: same seed should give the same solve: %v/%d vs %v/%d",
				name, a.Energy, a.Iterations, b.Energy, b.Iterations)
		}
	}
}

func TestSolveContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(t, rng, 10, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := solve.Run(ctx, g, solve.Options{}, &Kernel{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context should surface context.Canceled, got %v", err)
	}
}

func TestPolishNeverIncreasesEnergy(t *testing.T) {
	f := func(seed int64, picks [10]uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(t, rng, 10, 3)
		labels := make([]int, g.NumNodes())
		for i := range labels {
			labels[i] = int(picks[i]) % g.NumLabels(i)
		}
		before := g.MustEnergy(labels)
		sol, err := Polish(g, labels, 5)
		if err != nil {
			return false
		}
		return sol.Energy <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPolishValidation(t *testing.T) {
	g, _ := mrf.NewGraph([]int{2, 2})
	if _, err := Polish(nil, []int{0, 0}, 3); !errors.Is(err, solve.ErrNilGraph) {
		t.Error("nil graph should be rejected")
	}
	if _, err := Polish(g, []int{0}, 3); err == nil {
		t.Error("wrong labeling length should be rejected")
	}
	if _, err := Polish(g, []int{0, 9}, 3); err == nil {
		t.Error("out-of-range label should be rejected")
	}
	sol, err := Polish(g, []int{1, 1}, 0)
	if err != nil {
		t.Fatalf("Polish with default sweeps: %v", err)
	}
	if len(sol.Labels) != 2 {
		t.Error("Polish should return a full labeling")
	}
}

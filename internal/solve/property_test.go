package solve_test

import (
	"context"
	"math/rand"
	"testing"

	"netdiversity/internal/mrf"
	"netdiversity/internal/solve"

	// Register every solver kernel with the registry under test.
	_ "netdiversity/internal/bp"
	_ "netdiversity/internal/icm"
	_ "netdiversity/internal/multilevel"
	_ "netdiversity/internal/trws"
)

// randomGraph builds a small random MRF: a ring plus chords with a shared
// matrix on the ring (exercising interning) and random matrices on the
// chords.
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
			if err := g.SetUnary(i, l, rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	shared := make([][]float64, labels)
	for a := range shared {
		shared[a] = make([]float64, labels)
		for b := range shared[a] {
			shared[a][b] = rng.Float64() * 2
		}
	}
	for i := 0; i < nodes; i++ {
		if _, err := g.AddEdgeShared(i, (i+1)%nodes, shared); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < nodes/3; c++ {
		u, v := rng.Intn(nodes), rng.Intn(nodes)
		if u == v {
			continue
		}
		cost := make([][]float64, labels)
		for a := range cost {
			cost[a] = make([]float64, labels)
			for b := range cost[a] {
				cost[a][b] = rng.Float64() * 2
			}
		}
		if _, err := g.AddEdge(u, v, cost); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// solverNames returns the four production solvers, failing loudly if the
// registry is missing one (e.g. a lost blank import).
func solverNames(t *testing.T) []string {
	t.Helper()
	want := []string{"anneal", "bp", "icm", "trws"}
	for _, name := range want {
		if !solve.Registered(name) {
			t.Fatalf("solver %q not registered; registry has %v", name, solve.Names())
		}
	}
	return want
}

// TestEverySolverBeatsGreedy: on random graphs, every registered solver's
// energy is never worse than the greedy-unary labeling (the driver's
// best-tracking guarantees this) and never below the trivial lower bound.
func TestEverySolverBeatsGreedy(t *testing.T) {
	names := solverNames(t)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(t, rng, 10, 3)
		greedy := g.MustEnergy(g.GreedyLabeling())
		for _, name := range names {
			sol, err := solve.Solve(context.Background(), name, g, solve.Options{MaxIterations: 20, Seed: 7})
			if err != nil {
				t.Fatalf("trial %d solver %s: %v", trial, name, err)
			}
			if sol.Energy > greedy+1e-9 {
				t.Errorf("trial %d: %s energy %v worse than greedy %v", trial, name, sol.Energy, greedy)
			}
			if sol.Energy < sol.LowerBound-1e-9 {
				t.Errorf("trial %d: %s energy %v below lower bound %v", trial, name, sol.Energy, sol.LowerBound)
			}
			if got := g.MustEnergy(sol.Labels); got != sol.Energy {
				t.Errorf("trial %d: %s reported energy %v but labels evaluate to %v", trial, name, sol.Energy, got)
			}
		}
	}
}

// TestEverySolverHistoryMonotone: the shared driver's best-energy history is
// non-increasing for every solver and has one entry per iteration.
func TestEverySolverHistoryMonotone(t *testing.T) {
	names := solverNames(t)
	rng := rand.New(rand.NewSource(41))
	g := randomGraph(t, rng, 12, 3)
	for _, name := range names {
		sol, err := solve.Solve(context.Background(), name, g, solve.Options{MaxIterations: 15, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(sol.EnergyHistory) != sol.Iterations {
			t.Errorf("%s: history length %d != iterations %d", name, len(sol.EnergyHistory), sol.Iterations)
		}
		for i := 1; i < len(sol.EnergyHistory); i++ {
			if sol.EnergyHistory[i] > sol.EnergyHistory[i-1]+1e-12 {
				t.Errorf("%s: history not monotone at %d: %v", name, i, sol.EnergyHistory)
			}
		}
	}
}

// TestEverySolverHonoursWarmStart: given an optimal warm start, no solver
// may return anything worse.
func TestEverySolverHonoursWarmStart(t *testing.T) {
	names := solverNames(t)
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 5; trial++ {
		g := randomGraph(t, rng, 8, 2)
		// Find a strong labeling with one solver, then feed it to the others.
		ref, err := solve.Solve(context.Background(), "trws", g, solve.Options{MaxIterations: 30})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			sol, err := solve.Solve(context.Background(), name, g, solve.Options{
				MaxIterations: 5,
				Seed:          1,
				InitialLabels: ref.Labels,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if sol.Energy > ref.Energy+1e-9 {
				t.Errorf("trial %d: %s with warm start %v returned worse energy %v", trial, name, ref.Energy, sol.Energy)
			}
		}
	}
}

// TestEverySolverCancellable: a pre-cancelled context surfaces immediately
// from every solver with a usable best-so-far labeling.
func TestEverySolverCancellable(t *testing.T) {
	names := solverNames(t)
	rng := rand.New(rand.NewSource(61))
	g := randomGraph(t, rng, 10, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range names {
		sol, err := solve.Solve(ctx, name, g, solve.Options{})
		if err == nil {
			t.Errorf("%s: cancelled context should surface an error", name)
		}
		if len(sol.Labels) != g.NumNodes() {
			t.Errorf("%s: cancelled solve should still return a labeling", name)
		}
	}
}

package trws

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netdiversity/internal/mrf"
	"netdiversity/internal/mrf/mrftest"
	"netdiversity/internal/solve"
)

// run solves g with this package's kernel through the shared driver.
func run(g *mrf.Graph, opts solve.Options) (mrf.Solution, error) {
	return solve.Run(context.Background(), g, opts, &Kernel{})
}

// bruteForce finds the exact minimum energy by enumeration (only usable for
// tiny graphs).
func bruteForce(g *mrf.Graph) ([]int, float64) {
	n := g.NumNodes()
	best := make([]int, n)
	bestE := math.Inf(1)
	labels := make([]int, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if e := g.MustEnergy(labels); e < bestE {
				bestE = e
				copy(best, labels)
			}
			return
		}
		for l := 0; l < g.NumLabels(i); l++ {
			labels[i] = l
			rec(i + 1)
		}
	}
	rec(0)
	return best, bestE
}

// randomGraph builds a small random MRF: a ring plus chords, random unary and
// pairwise costs.
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
	addEdge := func(u, v int) {
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
	for i := 0; i < nodes; i++ {
		addEdge(i, (i+1)%nodes)
	}
	addEdge(0, nodes/2)
	return g
}

func TestSolveNilAndInvalid(t *testing.T) {
	if _, err := run(nil, solve.Options{}); !errors.Is(err, solve.ErrNilGraph) {
		t.Errorf("nil graph should return ErrNilGraph, got %v", err)
	}
	g, _ := mrf.NewGraph([]int{2})
	_ = g.SetUnary(0, 0, math.NaN())
	if _, err := run(g, solve.Options{}); err == nil {
		t.Error("invalid graph should be rejected")
	}
}

func TestSolveChainExact(t *testing.T) {
	// A 5-node chain with 3 labels: TRW-S should find the exact optimum.
	rng := rand.New(rand.NewSource(3))
	counts := []int{3, 3, 3, 3, 3}
	g, err := mrf.NewGraph(counts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		for l := 0; l < 3; l++ {
			_ = g.SetUnary(i, l, rng.Float64())
		}
	}
	for i := 0; i+1 < len(counts); i++ {
		cost := make([][]float64, 3)
		for a := range cost {
			cost[a] = make([]float64, 3)
			for b := range cost[a] {
				cost[a][b] = rng.Float64()
			}
		}
		if _, err := g.AddEdge(i, i+1, cost); err != nil {
			t.Fatal(err)
		}
	}
	sol, err := run(g, solve.Options{MaxIterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	_, wantE := bruteForce(g)
	if math.Abs(sol.Energy-wantE) > 1e-9 {
		t.Errorf("chain energy = %v, brute force = %v", sol.Energy, wantE)
	}
	if sol.Energy < sol.LowerBound-1e-9 {
		t.Error("energy below reported lower bound")
	}
}

func TestSolveDiversificationInstance(t *testing.T) {
	// Potts-style anti-affinity on a ring: adjacent nodes should get
	// different labels, which is achievable on an even ring.
	const n = 6
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 3
	}
	g, err := mrf.NewGraph(counts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := g.AddEdge(i, (i+1)%n, mrf.PottsCost(3, 3, 1)); err != nil {
			t.Fatal(err)
		}
	}
	sol, err := run(g, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Energy != 0 {
		t.Errorf("even ring should be perfectly colourable, energy = %v (labels %v)", sol.Energy, sol.Labels)
	}
}

func TestSolveRespectsHardConstraints(t *testing.T) {
	// Node 0 is pinned to label 1 through a HardPenalty unary; the optimal
	// solution must keep it there.
	g, err := mrf.NewGraph([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = g.SetUnary(0, 0, mrf.HardPenalty)
	if _, err := g.AddEdge(0, 1, mrf.PottsCost(2, 2, 1)); err != nil {
		t.Fatal(err)
	}
	sol, err := run(g, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Labels[0] != 1 {
		t.Errorf("pinned node decoded to %d, want 1", sol.Labels[0])
	}
	if sol.Labels[1] != 0 {
		t.Errorf("neighbour should avoid the pinned label, got %d", sol.Labels[1])
	}
}

func TestSolveNeverWorseThanGreedy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(t, rng, 8, 3)
		sol, err := run(g, solve.Options{MaxIterations: 30})
		if err != nil {
			return false
		}
		greedy := g.MustEnergy(g.GreedyLabeling())
		return sol.Energy <= greedy+1e-9 && sol.Energy >= sol.LowerBound-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSolveNearOptimalOnSmallLoopyGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		g := randomGraph(t, rng, 7, 2)
		sol, err := run(g, solve.Options{MaxIterations: 60})
		if err != nil {
			t.Fatal(err)
		}
		_, wantE := bruteForce(g)
		if sol.Energy < wantE-1e-9 {
			t.Fatalf("solver energy %v below true optimum %v", sol.Energy, wantE)
		}
		// Loopy graphs have no exactness guarantee, but on these tiny
		// instances TRW-S should come very close.
		if sol.Energy > wantE*1.15+0.2 {
			t.Errorf("trial %d: energy %v far from optimum %v", trial, sol.Energy, wantE)
		}
	}
}

func TestSolveContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(t, rng, 10, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := solve.Run(ctx, g, solve.Options{}, &Kernel{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context should surface context.Canceled, got %v", err)
	}
}

func TestSolveIsolatedNodes(t *testing.T) {
	g, err := mrf.NewGraph([]int{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	_ = g.SetUnary(0, 2, -1)
	_ = g.SetUnary(1, 1, -2)
	sol, err := run(g, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Labels[0] != 2 || sol.Labels[1] != 1 {
		t.Errorf("isolated nodes should pick their unary minima, got %v", sol.Labels)
	}
}

func TestEnergyHistoryMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(t, rng, 10, 3)
	sol, err := run(g, solve.Options{MaxIterations: 25})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sol.EnergyHistory); i++ {
		if sol.EnergyHistory[i] > sol.EnergyHistory[i-1]+1e-12 {
			t.Fatalf("best-energy history not monotone at %d: %v", i, sol.EnergyHistory)
		}
	}
	if len(sol.EnergyHistory) != sol.Iterations {
		t.Errorf("history length %d != iterations %d", len(sol.EnergyHistory), sol.Iterations)
	}
}

func benchmarkSolve(b *testing.B, labels int) {
	g := mrftest.BenchGraph(b, 400, labels)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(g, solve.Options{MaxIterations: 10, Patience: 10}); err != nil {
			b.Fatal(err)
		}
	}
}
func BenchmarkMessagePassK4(b *testing.B) { benchmarkSolve(b, 4) }
func BenchmarkMessagePassK6(b *testing.B) { benchmarkSolve(b, 6) }

package bp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"netdiversity/internal/mrf"
	"netdiversity/internal/mrf/mrftest"
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
	for i := 0; i+1 < nodes; i++ {
		cost := make([][]float64, labels)
		for a := range cost {
			cost[a] = make([]float64, labels)
			for b := range cost[a] {
				cost[a][b] = rng.Float64()
			}
		}
		if _, err := g.AddEdge(i, i+1, cost); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func bruteForce(g *mrf.Graph) float64 {
	n := g.NumNodes()
	bestE := math.Inf(1)
	labels := make([]int, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if e := g.MustEnergy(labels); e < bestE {
				bestE = e
			}
			return
		}
		for l := 0; l < g.NumLabels(i); l++ {
			labels[i] = l
			rec(i + 1)
		}
	}
	rec(0)
	return bestE
}

func TestSolveNilAndInvalidOptions(t *testing.T) {
	if _, err := run(nil, solve.Options{}); !errors.Is(err, solve.ErrNilGraph) {
		t.Errorf("nil graph should return ErrNilGraph, got %v", err)
	}
	bad, _ := mrf.NewGraph([]int{2})
	_ = bad.SetUnary(0, 0, math.NaN())
	if _, err := run(bad, solve.Options{}); err == nil {
		t.Error("invalid graph should be rejected")
	}
}

func TestSolveChainExact(t *testing.T) {
	// On trees min-sum BP is exact once converged.
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(t, rng, 6, 3)
	sol, err := run(g, solve.Options{MaxIterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForce(g)
	if math.Abs(sol.Energy-want) > 1e-9 {
		t.Errorf("BP on a chain should be exact: got %v, want %v", sol.Energy, want)
	}
	if !sol.Converged {
		t.Error("BP should converge on a chain")
	}
}

func TestSolveNeverWorseThanGreedyStart(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(t, rng, 8, 3)
		sol, err := run(g, solve.Options{MaxIterations: 50})
		if err != nil {
			t.Fatal(err)
		}
		greedy := g.MustEnergy(g.GreedyLabeling())
		if sol.Energy > greedy+1e-9 {
			t.Errorf("trial %d: BP energy %v worse than greedy %v", trial, sol.Energy, greedy)
		}
		if sol.Energy < sol.LowerBound-1e-9 {
			t.Error("energy below lower bound")
		}
	}
}

func TestSolveContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(t, rng, 8, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := solve.Run(ctx, g, solve.Options{}, &Kernel{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context should surface context.Canceled, got %v", err)
	}
}

func TestSolveHardConstraint(t *testing.T) {
	g, err := mrf.NewGraph([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = g.SetUnary(0, 0, mrf.HardPenalty)
	_ = g.SetUnary(1, 1, 0.5)
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
}

func benchmarkSolve(b *testing.B, labels int) {
	g := mrftest.BenchGraph(b, 400, labels)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(g, solve.Options{MaxIterations: 10}); err != nil {
			b.Fatal(err)
		}
	}
}
func BenchmarkMessageRoundK4(b *testing.B) { benchmarkSolve(b, 4) }
func BenchmarkMessageRoundK6(b *testing.B) { benchmarkSolve(b, 6) }

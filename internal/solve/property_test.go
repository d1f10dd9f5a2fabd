package solve_test

import (
	"context"
	"math"
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

// solverNames returns the production solvers, failing loudly if the
// registry is missing one (e.g. a lost blank import).
func solverNames(t *testing.T) []string {
	t.Helper()
	want := []string{"anneal", "bp", "icm", "multilevel", "trws"}
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

// oracleGraph builds a random MRF with 2-3 labels per node and random
// non-negative costs: a random tree (every node i > 0 hangs off a random
// earlier node) plus, unless tree is set, a few chords that close loops.
func oracleGraph(t *testing.T, rng *rand.Rand, nodes int, tree bool) *mrf.Graph {
	t.Helper()
	counts := make([]int, nodes)
	for i := range counts {
		counts[i] = 2 + rng.Intn(2)
	}
	g, err := mrf.NewGraph(counts)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range counts {
		for l := 0; l < k; l++ {
			if err := g.SetUnary(i, l, rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	addEdge := func(u, v int) {
		cost := make([][]float64, counts[u])
		for a := range cost {
			cost[a] = make([]float64, counts[v])
			for b := range cost[a] {
				cost[a][b] = rng.Float64() * 2
			}
		}
		if _, err := g.AddEdge(u, v, cost); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < nodes; i++ {
		addEdge(rng.Intn(i), i)
	}
	if !tree {
		for c := 0; c < nodes/2; c++ {
			if u, v := rng.Intn(nodes), rng.Intn(nodes); u != v {
				addEdge(u, v)
			}
		}
	}
	return g
}

// bruteForce returns the exact minimum energy of g by enumerating every
// labeling, accumulating each node's unary and its edges to lower-indexed
// nodes as the enumeration descends.
func bruteForce(g *mrf.Graph) float64 {
	n := g.NumNodes()
	back := make([][]int, n) // edges from node i to a lower-indexed node
	for e := 0; e < g.NumEdges(); e++ {
		u, v := g.EdgeEndpoints(e)
		back[max(u, v)] = append(back[max(u, v)], e)
	}
	labels := make([]int, n)
	best := math.Inf(1)
	var rec func(i int, partial float64)
	rec = func(i int, partial float64) {
		if i == n {
			best = min(best, partial)
			return
		}
		for l := 0; l < g.NumLabels(i); l++ {
			labels[i] = l
			cost := partial + g.UnaryView(i)[l]
			for _, e := range back[i] {
				u, v := g.EdgeEndpoints(e)
				cost += g.EdgeMat(e).At(labels[u], labels[v])
			}
			rec(i+1, cost)
		}
	}
	rec(0, 0)
	return best
}

// TestEverySolverAgainstExactOracle runs every production solver cold and
// warm (random initial labels and dirty mask) on random MRFs of at most 10
// variables and compares it with brute force: no solver may report an energy
// below the optimum or one its labels do not evaluate to, and the
// message-passing solvers (trws, bp, and multilevel, which hands a graph this
// small to trws) must be exact on trees.
func TestEverySolverAgainstExactOracle(t *testing.T) {
	names := solverNames(t)
	exactOnTrees := map[string]bool{"bp": true, "multilevel": true, "trws": true}
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 80; trial++ {
		tree := trial%2 == 0
		g := oracleGraph(t, rng, 6+rng.Intn(5), tree)
		opt := bruteForce(g)
		initial := make([]int, g.NumNodes())
		dirty := make([]bool, g.NumNodes())
		for i := range initial {
			initial[i] = rng.Intn(g.NumLabels(i))
			dirty[i] = rng.Intn(2) == 0
		}
		for _, name := range names {
			for _, warm := range []bool{false, true} {
				opts := solve.Options{MaxIterations: 50, Seed: int64(trial)}
				if warm {
					opts.InitialLabels = append([]int(nil), initial...)
					opts.DirtyMask = append([]bool(nil), dirty...)
				}
				sol, err := solve.Solve(context.Background(), name, g, opts)
				if err != nil {
					t.Fatalf("trial %d %s warm=%v: %v", trial, name, warm, err)
				}
				if got := g.MustEnergy(sol.Labels); got != sol.Energy {
					t.Errorf("trial %d %s warm=%v: reported energy %v, labels evaluate to %v", trial, name, warm, sol.Energy, got)
				}
				if sol.Energy < opt-1e-9 {
					t.Errorf("trial %d %s warm=%v: energy %v below the exact optimum %v", trial, name, warm, sol.Energy, opt)
				}
				if tree && !warm && exactOnTrees[name] && sol.Energy > opt+1e-9 {
					t.Errorf("trial %d %s: energy %v on a tree, exact optimum %v", trial, name, sol.Energy, opt)
				}
			}
		}
	}
}

package solve_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"netdiversity/internal/mrf"
	"netdiversity/internal/solve"
)

// TestKernelInitIsRecallable pins the Kernel contract a long-lived caller
// relies on: one kernel value handed to Run again and again — on a graph, on a
// graph of another size, back on the first, after a solve that was cancelled
// mid-way, after the graph was patched in place, cold and warm — gives exactly
// the labels and energy a fresh kernel gives.  Whatever Init keeps between
// solves (arenas, a topology-keyed incidence) must never leak state.
func TestKernelInitIsRecallable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randomGraph(t, rng, 60, 4)
	b := randomGraph(t, rng, 25, 3)

	warmOpts := func(g *mrf.Graph, seed int64) solve.Options {
		r := rand.New(rand.NewSource(seed))
		labels := g.GreedyLabeling()
		dirty := make([]bool, g.NumNodes())
		for i := range dirty {
			dirty[i] = r.Intn(4) == 0
		}
		return solve.Options{MaxIterations: 12, Seed: 5, InitialLabels: labels, DirtyMask: dirty}
	}
	cold := solve.Options{MaxIterations: 20, Seed: 5}

	for _, name := range solve.Names() {
		if name == "test-solver" {
			continue // TestRegistry's scripted stub, registered when it ran first
		}
		retained, err := solve.New(name)
		if err != nil {
			t.Fatal(err)
		}
		check := func(step string, g *mrf.Graph, opts solve.Options) {
			t.Helper()
			fresh, err := solve.New(name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := solve.Run(context.Background(), g, opts, fresh)
			if err != nil {
				t.Fatalf("%s/%s: fresh kernel: %v", name, step, err)
			}
			got, err := solve.Run(context.Background(), g, opts, retained)
			if err != nil {
				t.Fatalf("%s/%s: retained kernel: %v", name, step, err)
			}
			if got.Energy != want.Energy || !slices.Equal(got.Labels, want.Labels) || got.Iterations != want.Iterations {
				t.Fatalf("%s/%s: retained kernel energy %v in %d steps, fresh kernel %v in %d\n got %v\nwant %v",
					name, step, got.Energy, got.Iterations, want.Energy, want.Iterations, got.Labels, want.Labels)
			}
		}

		check("A cold", a, cold)
		check("B cold", b, cold)
		check("A cold again", a, cold)
		check("A warm", a, warmOpts(a, 1))
		check("B warm", b, warmOpts(b, 2))
		check("A warm, other mask", a, warmOpts(a, 3))

		// A solve cancelled between steps leaves the kernel mid-flight.
		stop := errors.New("stop")
		steps := 0
		cancelled := warmOpts(a, 4)
		cancelled.Checkpoint = func(context.Context) error {
			if steps++; steps > 2 {
				return stop
			}
			return nil
		}
		if _, err := solve.Run(context.Background(), a, cancelled, retained); !errors.Is(err, stop) {
			t.Fatalf("%s: cancelled solve returned %v", name, err)
		}
		check("A warm after a cancelled solve", a, warmOpts(a, 4))
		check("A cold after a cancelled solve", a, cold)

		// Patch A in place the way core's delta path does — a node and two
		// edges appended, a few edges dropped, a unary row moved — between
		// solves on the same kernel value.
		patched := randomGraph(t, rand.New(rand.NewSource(29)), 60, 4)
		check("P cold", patched, cold)
		node, err := patched.AddNode(4)
		if err != nil {
			t.Fatal(err)
		}
		cost := [][]float64{{0, 1, 2, 3}, {1, 0, 1, 2}, {2, 1, 0, 1}, {3, 2, 1, 0}}
		for _, other := range []int{3, 17} {
			if _, err := patched.AddEdge(node, other, cost); err != nil {
				t.Fatal(err)
			}
		}
		check("P warm after growing", patched, warmOpts(patched, 5))
		patched.FilterEdges(func(idx, _, _ int) bool { return idx%7 != 0 })
		check("P warm after losing edges", patched, warmOpts(patched, 6))
		if err := patched.SetUnaryRow(9, []float64{5, 0, 5, 5}); err != nil {
			t.Fatal(err)
		}
		check("P warm after a unary nudge", patched, warmOpts(patched, 7))
		check("P cold after patches", patched, cold)
	}
}

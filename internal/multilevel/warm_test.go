package multilevel_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"netdiversity/internal/mrf"
	"netdiversity/internal/multilevel"
	"netdiversity/internal/solve"
)

// twoIslands builds an MRF of two disconnected halves of n nodes each (a ring
// plus random chords, Potts costs, random unaries).  Nothing a warm solve
// does on the first island can grow a frontier into the second.
func twoIslands(t *testing.T, n int, seed int64) *mrf.Graph {
	t.Helper()
	const labels = 4
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int, 2*n)
	for i := range counts {
		counts[i] = labels
	}
	g, err := mrf.NewGraph(counts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		for l := 0; l < labels; l++ {
			if err := g.SetUnary(i, l, rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	potts := mrf.PottsCost(labels, labels, 1)
	for island := 0; island < 2; island++ {
		base := island * n
		for i := 0; i < n; i++ {
			if _, err := g.AddEdgeShared(base+i, base+(i+1)%n, potts); err != nil {
				t.Fatal(err)
			}
			if j := rng.Intn(n); j != i && j != (i+1)%n && (j+1)%n != i {
				if _, err := g.AddEdgeShared(base+i, base+j, potts); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

// TestWarmKernelContract runs the solve.WarmKernel contract against the
// multilevel kernel on a graph below and one above MatchingLimit (both
// refined by trws) and once with the edge limit lowered so the icm worklist
// is the inner kernel.
func TestWarmKernelContract(t *testing.T) {
	for _, tc := range []struct {
		name      string
		island    int  // nodes per island; the graph has two
		aggregate bool // above MatchingLimit: a cold solve takes the Aggregate path
		edgeLimit int  // Kernel.TRWSEdgeLimit; 0 = default, 1 = always the icm worklist
	}{
		{"matching/trws", 1500, false, 0},
		{"aggregate/trws", 10000, true, 0},
		{"matching/icm", 1500, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := twoIslands(t, tc.island, int64(tc.island))
			n := g.NumNodes()
			if above := n > multilevel.DefaultMatchingLimit; above != tc.aggregate {
				t.Fatalf("%d nodes is on the wrong side of MatchingLimit %d", n, multilevel.DefaultMatchingLimit)
			}
			cold, err := solve.Solve(context.Background(), "multilevel", g, solve.Options{MaxIterations: 30, Seed: 1})
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			// The second island's prior is deliberately bad: any kernel that
			// reached it would move it.
			prior := append([]int(nil), cold.Labels...)
			for i := tc.island; i < n; i++ {
				prior[i] = (prior[i] + 1) % g.NumLabels(i)
			}
			warmRun := func(dirty []bool) (mrf.Solution, multilevel.Stats) {
				k := &multilevel.Kernel{TRWSEdgeLimit: tc.edgeLimit}
				sol, err := solve.Run(context.Background(), g, solve.Options{
					MaxIterations: 6,
					Seed:          1,
					InitialLabels: prior,
					DirtyMask:     dirty,
				}, k)
				if err != nil {
					t.Fatalf("warm: %v", err)
				}
				return sol, k.Stats()
			}

			sol, stats := warmRun(make([]bool, n))
			for i, l := range sol.Labels {
				if l != prior[i] {
					t.Fatalf("all-clean mask: node %d moved from %d to %d", i, prior[i], l)
				}
			}
			if stats.Levels != 0 {
				t.Errorf("all-clean mask: a hierarchy of %d levels was built", stats.Levels)
			}

			// Make node 7's label expensive and mark its neighbourhood dirty.
			if err := g.SetUnary(7, prior[7], 50); err != nil {
				t.Fatal(err)
			}
			dirty := make([]bool, n)
			dirty[7] = true
			for _, e := range g.IncidentEdges(7) {
				u, v := g.EdgeEndpoints(e)
				dirty[u], dirty[v] = true, true
			}
			stale := g.MustEnergy(prior)
			sol, stats = warmRun(dirty)
			if got := g.MustEnergy(sol.Labels); got != sol.Energy {
				t.Errorf("reported energy %v does not match the labels (%v)", sol.Energy, got)
			}
			if sol.Energy >= stale-40 {
				t.Errorf("warm energy %v did not repair the perturbation (stale prior %v)", sol.Energy, stale)
			}
			for i := tc.island; i < n; i++ {
				if sol.Labels[i] != prior[i] {
					t.Fatalf("node %d on the untouched island moved from %d to %d", i, prior[i], sol.Labels[i])
				}
			}
			if stats.Levels != 0 || stats.CoarsenMS != 0 || stats.RefinedNodes != 0 {
				t.Errorf("warm solve built a hierarchy: %+v", stats)
			}
			// Defaults' hierarchy floor (28 steps) must not apply to a warm solve.
			if sol.Iterations > 6 {
				t.Errorf("warm solve ran %d sweeps with a budget of 6", sol.Iterations)
			}
		})
	}
}

// failingKernel is a base solver whose Init always fails.
type failingKernel struct{}

var errBaseBroken = errors.New("base solver broken")

func (failingKernel) Init(*mrf.Graph, solve.Options) error { return errBaseBroken }
func (failingKernel) Step() solve.Step                     { return solve.Step{Exhausted: true} }

// A multilevel solve whose coarse solve fails must fail through the registry
// path too, not hand back the driver's greedy baseline as a solution.
func TestBaseSolverFailureSurfacesThroughRegistry(t *testing.T) {
	if !solve.Registered("test-broken-base") { // -count=N re-enters; Register panics on duplicates
		solve.Register("test-broken-base", func() solve.Kernel { return failingKernel{} })
		solve.Register("test-multilevel-broken-base", func() solve.Kernel {
			return &multilevel.Kernel{BaseSolver: "test-broken-base"}
		})
	}
	g := twoIslands(t, 200, 3)
	_, err := solve.Solve(context.Background(), "test-multilevel-broken-base", g, solve.Options{MaxIterations: 30})
	if !errors.Is(err, errBaseBroken) {
		t.Fatalf("solve.Solve returned err = %v, want the base solver's failure", err)
	}
}

package coarsen_test

import (
	"context"
	"math/rand"
	"testing"

	"netdiversity/internal/coarsen"
	"netdiversity/internal/mrf"
	"netdiversity/internal/netgen"
	"netdiversity/internal/solve"

	_ "netdiversity/internal/icm"
)

func testGraph(t *testing.T, hosts int, seed int64) *mrf.Graph {
	t.Helper()
	g, err := netgen.UniformGraph(netgen.RandomConfig{
		Hosts: hosts, Degree: 6, Services: 2, ProductsPerService: 4, Seed: seed,
	})
	if err != nil {
		t.Fatalf("UniformGraph: %v", err)
	}
	return g
}

func randomLabels(g *mrf.Graph, rng *rand.Rand) []int {
	labels := make([]int, g.NumNodes())
	for i := range labels {
		labels[i] = rng.Intn(g.NumLabels(i))
	}
	return labels
}

// Contract's merged-potential construction must preserve energy exactly:
// E_coarse(x) == E_fine(Project(x)) for every coarse labeling.
func TestContractEnergyConsistent(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		g := testGraph(t, 60, seed)
		coarse, f2c, err := coarsen.Contract(g)
		if err != nil {
			t.Fatalf("Contract: %v", err)
		}
		if coarse.NumNodes() >= g.NumNodes() {
			t.Fatalf("contraction did not shrink: %d -> %d nodes", g.NumNodes(), coarse.NumNodes())
		}
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 50; trial++ {
			cl := randomLabels(coarse, rng)
			fl := make([]int, g.NumNodes())
			for i, c := range f2c {
				fl[i] = cl[c]
			}
			ec := coarse.MustEnergy(cl)
			ef := g.MustEnergy(fl)
			if diff := ec - ef; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("seed %d trial %d: coarse energy %.12f != projected fine energy %.12f", seed, trial, ec, ef)
			}
		}
	}
}

// The same invariant must survive the full hierarchy: projecting a coarsest
// labeling all the way down without refinement keeps the energy identical.
func TestHierarchyEnergyConsistent(t *testing.T) {
	g := testGraph(t, 400, 3)
	h, err := coarsen.Build(g, 32)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if h.NumLevels() < 3 {
		t.Fatalf("expected a multi-level hierarchy, got %d levels", h.NumLevels())
	}
	rng := rand.New(rand.NewSource(9))
	top := h.NumLevels() - 1
	for trial := 0; trial < 20; trial++ {
		cl := randomLabels(h.Coarsest(), rng)
		fl, err := h.Project(cl, top, 0)
		if err != nil {
			t.Fatalf("Project: %v", err)
		}
		ec := h.Coarsest().MustEnergy(cl)
		ef := g.MustEnergy(fl)
		if diff := ec - ef; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: coarsest energy %.12f != projected fine energy %.12f", trial, ec, ef)
		}
	}
}

// One warm refinement pass over a projected labeling must never increase its
// energy, for any coarse labeling.
func TestProjectionRefinementNeverIncreasesEnergy(t *testing.T) {
	g := testGraph(t, 150, 5)
	h, err := coarsen.Build(g, 64)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	top := h.NumLevels() - 1
	for trial := 0; trial < 10; trial++ {
		cl := randomLabels(h.Coarsest(), rng)
		fl, err := h.Project(cl, top, 0)
		if err != nil {
			t.Fatalf("Project: %v", err)
		}
		before := g.MustEnergy(fl)
		dirty := make([]bool, g.NumNodes())
		for i := range dirty {
			dirty[i] = true
		}
		kern, err := solve.New("icm")
		if err != nil {
			t.Fatalf("New(icm): %v", err)
		}
		sol, err := solve.Run(context.Background(), g, solve.Options{
			MaxIterations: 1,
			InitialLabels: fl,
			DirtyMask:     dirty,
		}, kern)
		if err != nil {
			t.Fatalf("refine: %v", err)
		}
		if sol.Energy > before+1e-9 {
			t.Fatalf("trial %d: refinement increased energy %.9f -> %.9f", trial, before, sol.Energy)
		}
	}
}

// Hierarchy construction is deterministic: two builds from identically
// generated graphs agree level by level.
func TestHierarchyDeterministic(t *testing.T) {
	build := func() (*coarsen.Hierarchy, *mrf.Graph) {
		g := testGraph(t, 300, 17)
		h, err := coarsen.Build(g, 32)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return h, g
	}
	h1, _ := build()
	h2, g2 := build()
	if h1.NumLevels() != h2.NumLevels() {
		t.Fatalf("level counts differ: %d vs %d", h1.NumLevels(), h2.NumLevels())
	}
	for l := range h1.Maps {
		m1, m2 := h1.Maps[l], h2.Maps[l]
		if len(m1) != len(m2) {
			t.Fatalf("level %d map sizes differ: %d vs %d", l, len(m1), len(m2))
		}
		for i := range m1 {
			if m1[i] != m2[i] {
				t.Fatalf("level %d: node %d maps to %d vs %d", l, i, m1[i], m2[i])
			}
		}
	}
	for l, lvl := range h1.Levels {
		if lvl.NumNodes() != h2.Levels[l].NumNodes() || lvl.NumEdges() != h2.Levels[l].NumEdges() {
			t.Fatalf("level %d shapes differ: %d/%d vs %d/%d nodes/edges",
				l, lvl.NumNodes(), lvl.NumEdges(), h2.Levels[l].NumNodes(), h2.Levels[l].NumEdges())
		}
	}
	// Same labeling, same energy on both runs' coarsest graphs.
	rng := rand.New(rand.NewSource(23))
	cl := randomLabels(h1.Coarsest(), rng)
	if e1, e2 := h1.Coarsest().MustEnergy(cl), h2.Coarsest().MustEnergy(cl); e1 != e2 {
		t.Fatalf("coarsest energies differ: %v vs %v", e1, e2)
	}
	_ = g2
}

// Aggregate shares Contract's merged-potential construction, so the same
// exact energy invariant must hold for the single-jump path, and two
// aggregations of identically generated graphs must agree.
func TestAggregateEnergyConsistentAndDeterministic(t *testing.T) {
	g := testGraph(t, 500, 13)
	const stride = 2 // services in testGraph
	coarse, f2c, err := coarsen.Aggregate(g, stride, 64)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if coarse.NumNodes() >= g.NumNodes()/4 {
		t.Fatalf("aggregation barely shrank: %d -> %d nodes", g.NumNodes(), coarse.NumNodes())
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		cl := randomLabels(coarse, rng)
		fl := make([]int, g.NumNodes())
		for i, c := range f2c {
			fl[i] = cl[c]
		}
		ec := coarse.MustEnergy(cl)
		ef := g.MustEnergy(fl)
		if diff := ec - ef; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: coarse energy %.12f != projected fine energy %.12f", trial, ec, ef)
		}
	}
	g2 := testGraph(t, 500, 13)
	coarse2, f2c2, err := coarsen.Aggregate(g2, stride, 64)
	if err != nil {
		t.Fatalf("Aggregate (rebuild): %v", err)
	}
	if coarse2.NumNodes() != coarse.NumNodes() || coarse2.NumEdges() != coarse.NumEdges() {
		t.Fatalf("rebuild shapes differ: %d/%d vs %d/%d nodes/edges",
			coarse.NumNodes(), coarse.NumEdges(), coarse2.NumNodes(), coarse2.NumEdges())
	}
	for i := range f2c {
		if f2c[i] != f2c2[i] {
			t.Fatalf("rebuild maps node %d to %d vs %d", i, f2c[i], f2c2[i])
		}
	}
}

// Contract must keep the interned-matrix structure compact: a graph whose
// edges share one matrix per service may not explode into per-edge matrices.
func TestContractInternsAccumulatedMatrices(t *testing.T) {
	g := testGraph(t, 200, 29)
	fineMats := g.NumMatrices()
	coarse, _, err := coarsen.Contract(g)
	if err != nil {
		t.Fatalf("Contract: %v", err)
	}
	// Accumulated parallel edges create new content, but content interning
	// must keep the matrix pool far below one-per-edge.
	if coarse.NumMatrices() >= coarse.NumEdges() && coarse.NumEdges() > 8 {
		t.Fatalf("coarse graph interned %d matrices for %d edges (fine had %d)",
			coarse.NumMatrices(), coarse.NumEdges(), fineMats)
	}
}

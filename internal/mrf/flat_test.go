package mrf

import (
	"math"
	"math/rand"
	"testing"
)

// referenceGraph is a straightforward nested-slice MRF implementation — the
// seed representation — used as the oracle for the flat storage layer.
type referenceGraph struct {
	unary [][]float64
	edges []struct {
		u, v int
		cost [][]float64
	}
}

func (r *referenceGraph) energy(labels []int) float64 {
	total := 0.0
	for i, l := range labels {
		total += r.unary[i][l]
	}
	for _, e := range r.edges {
		total += e.cost[labels[e.u]][labels[e.v]]
	}
	return total
}

// buildPair constructs the same random MRF in both representations.
func buildPair(t *testing.T, rng *rand.Rand, nodes, labels, extraEdges int) (*Graph, *referenceGraph) {
	t.Helper()
	counts := make([]int, nodes)
	for i := range counts {
		counts[i] = labels
	}
	g, err := NewGraph(counts)
	if err != nil {
		t.Fatal(err)
	}
	ref := &referenceGraph{unary: make([][]float64, nodes)}
	for i := 0; i < nodes; i++ {
		ref.unary[i] = make([]float64, labels)
		for l := 0; l < labels; l++ {
			v := rng.Float64()*4 - 1
			ref.unary[i][l] = v
			if err := g.SetUnary(i, l, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A shared matrix on the ring edges (exercises interning) plus random
	// per-edge matrices on the chords.
	shared := make([][]float64, labels)
	for a := range shared {
		shared[a] = make([]float64, labels)
		for b := range shared[a] {
			shared[a][b] = rng.Float64()
		}
	}
	addBoth := func(u, v int, cost [][]float64, sharedCall bool) {
		var err error
		if sharedCall {
			_, err = g.AddEdgeShared(u, v, cost)
		} else {
			_, err = g.AddEdge(u, v, cost)
		}
		if err != nil {
			t.Fatal(err)
		}
		ref.edges = append(ref.edges, struct {
			u, v int
			cost [][]float64
		}{u, v, cost})
	}
	for i := 0; i < nodes; i++ {
		addBoth(i, (i+1)%nodes, shared, true)
	}
	for e := 0; e < extraEdges; e++ {
		u := rng.Intn(nodes)
		v := rng.Intn(nodes)
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
		addBoth(u, v, cost, false)
	}
	return g, ref
}

// TestFlatStorageMatchesReferenceEnergy: the flat interned representation
// must report exactly the same energies as the naive nested-slice reference
// on random graphs and random labelings.
func TestFlatStorageMatchesReferenceEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		g, ref := buildPair(t, rng, 12, 4, 8)
		for rep := 0; rep < 20; rep++ {
			labels := make([]int, g.NumNodes())
			for i := range labels {
				labels[i] = rng.Intn(g.NumLabels(i))
			}
			got := g.MustEnergy(labels)
			want := ref.energy(labels)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d: flat energy %v != reference %v (labels %v)", trial, got, want, labels)
			}
		}
		if g.NumMatrices() >= g.NumEdges() {
			t.Errorf("ring edges share one matrix; expected interning, got %d matrices for %d edges",
				g.NumMatrices(), g.NumEdges())
		}
	}
}

// TestEdgeAccessorsAgree: every access path to the pairwise costs
// (EdgeEndpoints, PairwiseCost, EdgeMat, EdgeMatT) must agree with the
// nested-slice reference the edges were built from.
func TestEdgeAccessorsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g, ref := buildPair(t, rng, 8, 3, 5)
	for idx := 0; idx < g.NumEdges(); idx++ {
		e := ref.edges[idx]
		m := g.EdgeMat(idx)
		mt := g.EdgeMatT(idx)
		u, v := g.EdgeEndpoints(idx)
		if u != e.u || v != e.v {
			t.Fatalf("edge %d endpoints disagree", idx)
		}
		for a := 0; a < g.NumLabels(u); a++ {
			for b := 0; b < g.NumLabels(v); b++ {
				want := e.cost[a][b]
				if got := g.PairwiseCost(idx, a, b); got != want {
					t.Fatalf("PairwiseCost(%d,%d,%d) = %v, want %v", idx, a, b, got, want)
				}
				if got := m.At(a, b); got != want {
					t.Fatalf("EdgeMat.At(%d,%d) = %v, want %v", a, b, got, want)
				}
				if got := mt.At(b, a); got != want {
					t.Fatalf("EdgeMatT.At(%d,%d) = %v, want %v", b, a, got, want)
				}
			}
		}
	}
}

// TestIncidentEdgesCSR: the CSR adjacency must list exactly the incident
// edges of every node and survive incremental edge additions.
func TestIncidentEdgesCSR(t *testing.T) {
	g, err := NewGraph([]int{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	add := func(u, v int) int {
		idx, err := g.AddEdge(u, v, PottsCost(2, 2, 1))
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	e01 := add(0, 1)
	e12 := add(1, 2)
	if got := g.IncidentEdges(1); len(got) != 2 || got[0] != e01 || got[1] != e12 {
		t.Fatalf("IncidentEdges(1) = %v", got)
	}
	// Adding an edge after a CSR build must invalidate and rebuild.
	e13 := add(1, 3)
	if got := g.IncidentEdges(1); len(got) != 3 || got[2] != e13 {
		t.Fatalf("IncidentEdges(1) after rebuild = %v", got)
	}
	if g.Degree(0) != 1 || g.Degree(1) != 3 || g.Degree(3) != 1 {
		t.Error("Degree disagrees with CSR adjacency")
	}
	if got := g.AdjacentEdges(2); len(got) != 1 || got[0] != e12 {
		t.Fatalf("AdjacentEdges(2) = %v", got)
	}
}

// TestUnaryViewAliasesStorage: UnaryView must observe SetUnary/AddUnary
// updates without copying, while UnaryRow stays a defensive copy.
func TestUnaryViewAliasesStorage(t *testing.T) {
	g, err := NewGraph([]int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	view := g.UnaryView(1)
	if len(view) != 3 {
		t.Fatalf("UnaryView length = %d", len(view))
	}
	if err := g.SetUnary(1, 2, 7); err != nil {
		t.Fatal(err)
	}
	if view[2] != 7 {
		t.Error("UnaryView should alias the flat buffer")
	}
	row := g.UnaryRow(1)
	row[2] = -1
	if g.Unary(1, 2) != 7 {
		t.Error("UnaryRow must stay a copy")
	}
}

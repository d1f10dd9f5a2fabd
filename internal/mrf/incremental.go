package mrf

import "fmt"

// Incremental mutation support.  The flat storage layout (contiguous unary
// buffer, CSR adjacency, interned pairwise matrices) is optimised for solver
// reads, but a long-lived serving engine must also absorb network deltas
// without a cold rebuild.  The operations here keep the flat invariants:
// nodes are appended (never shifted), edges are compacted in one pass, and
// the CSR adjacency is invalidated lazily exactly like AddEdge does.

// AddNode appends a node with the given label count and returns its index.
// The new node's unary costs start at zero and it has no incident edges.
func (g *Graph) AddNode(labelCount int) (int, error) {
	if labelCount <= 0 {
		return 0, fmt.Errorf("mrf: new node needs at least 1 label, got %d", labelCount)
	}
	idx := len(g.counts)
	g.counts = append(g.counts, labelCount)
	g.labels = append(g.labels, nil)
	g.off = append(g.off, g.off[idx]+labelCount)
	g.unary = append(g.unary, make([]float64, labelCount)...)
	g.structureChanged()
	return idx, nil
}

// SetUnaryRow replaces the whole unary cost vector of a node in the flat
// buffer (the bulk form of SetUnary used by delta patching).
func (g *Graph) SetUnaryRow(node int, costs []float64) error {
	if node < 0 || node >= len(g.counts) {
		return fmt.Errorf("mrf: node %d out of range", node)
	}
	if len(costs) != g.counts[node] {
		return fmt.Errorf("mrf: node %d has %d labels but %d costs given", node, g.counts[node], len(costs))
	}
	copy(g.unary[g.off[node]:g.off[node+1]], costs)
	return nil
}

// FilterEdges removes every edge for which keep returns false and reports
// how many were removed.  Edge indices are compacted (they shift), so
// callers holding edge indices must re-derive them; the solver kernels
// rebuild their incidence structures per solve and are unaffected.  Interned
// cost matrices that lose their last edge stay allocated until the next full
// rebuild — a deliberate trade for O(E) removal without reference counting.
func (g *Graph) FilterEdges(keep func(idx, u, v int) bool) int {
	out := g.edges[:0]
	for idx, e := range g.edges {
		if keep(idx, e.U, e.V) {
			out = append(out, e)
		}
	}
	removed := len(g.edges) - len(out)
	if removed > 0 {
		g.edges = out
		g.structureChanged()
	}
	return removed
}

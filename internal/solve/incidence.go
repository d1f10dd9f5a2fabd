package solve

import (
	"slices"

	"netdiversity/internal/mrf"
)

// HalfEdge is one directed view of an undirected MRF edge as seen from a
// node: the edge index, the opposite endpoint, and whether the node is the
// edge's U endpoint (i.e. indexes the cost matrix rows).
type HalfEdge struct {
	Edge  int32
	Other int32
	IsU   bool
}

// Incidence is a CSR half-edge incidence structure shared by the solver
// kernels: Of(i) lists node i's half edges in edge-index order.
type Incidence struct {
	inc []HalfEdge
	off []int
	// g and generation identify the topology the structure was built for.
	g          *mrf.Graph
	generation uint64
}

// Build makes the incidence structure current for a graph and touches the
// graph's lazy caches (adjacency CSR, transposed matrices) so that kernels may
// read them from multiple goroutines afterwards.  Call it from Kernel.Init,
// which the driver guarantees runs single-threaded.  On a retained Incidence
// it does nothing and returns false while the graph's topology is the one it
// was built for (mrf.Graph.Generation: a delta that only moved unary costs),
// so the caller can keep what it derived from the topology too; otherwise the
// arenas are refilled in place (every element overwritten) when large enough.
func (in *Incidence) Build(g *mrf.Graph) (rebuilt bool) {
	if in.g == g && in.generation == g.Generation() && in.off != nil {
		return false
	}
	in.g, in.generation = g, g.Generation()
	n := g.NumNodes()
	in.off = slices.Grow(in.off[:0], n+1)[:n+1]
	in.off[0] = 0
	for i := 0; i < n; i++ {
		in.off[i+1] = in.off[i] + len(g.IncidentEdges(i))
	}
	in.inc = slices.Grow(in.inc[:0], in.off[n])[:in.off[n]]
	for i := 0; i < n; i++ {
		pos := in.off[i]
		for _, e := range g.IncidentEdges(i) {
			u, v := g.EdgeEndpoints(e)
			he := HalfEdge{Edge: int32(e), Other: int32(v), IsU: true}
			if v == i {
				he.Other = int32(u)
				he.IsU = false
			}
			in.inc[pos] = he
			pos++
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		g.EdgeMatT(e)
	}
	return true
}

// Of returns the half edges of a node as a read-only view.
func (in *Incidence) Of(node int) []HalfEdge {
	return in.inc[in.off[node]:in.off[node+1]:in.off[node+1]]
}

// MessageOffsets lays out flat per-endpoint message storage for every edge:
// intoU[e] is the offset of the message into edge e's U endpoint, intoV[e]
// the offset of the message into its V endpoint, and total the buffer length
// (message sizes are the endpoints' label counts).  The slices passed in are
// reused when large enough.  Both message-passing kernels share this layout.
func MessageOffsets(g *mrf.Graph, intoU, intoV []int) (u, v []int, total int) {
	nEdges := g.NumEdges()
	intoU, intoV = slices.Grow(intoU[:0], nEdges)[:nEdges], slices.Grow(intoV[:0], nEdges)[:nEdges]
	for e := 0; e < nEdges; e++ {
		a, b := g.EdgeEndpoints(e)
		intoU[e] = total
		total += g.NumLabels(a)
		intoV[e] = total
		total += g.NumLabels(b)
	}
	return intoU, intoV, total
}

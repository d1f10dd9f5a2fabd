// Package mrf implements the discrete pairwise Markov Random Field used by
// the paper to encode the diversification problem (Section V, Eq. 1):
//
//	E(x) = Σ_i φ_i(x_i) + Σ_{(i,j)∈L} ψ_ij(x_i, x_j)
//
// Nodes carry a finite label space (the candidate product combinations of a
// host), φ are unary costs (product preferences and constraint penalties) and
// ψ are pairwise costs (vulnerability similarities).  Solvers live in the
// trws, bp and icm packages and operate on the Graph type defined here.
//
// Storage layout.  The graph keeps all unary costs in one flat contiguous
// []float64 indexed through per-node offsets, stores every distinct pairwise
// cost matrix exactly once (interned by content, see Matrix) and maintains a
// CSR-style flat adjacency list mapping nodes to incident edge indices.  This
// keeps the hot message-passing loops cache-friendly and drops pairwise
// memory from O(E·K²) to O(distinct·K²) on networks where many links share
// the same similarity matrix.
package mrf

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// HardPenalty is the finite cost used to encode hard constraints (the "∞" of
// the paper's unary cost Pc).  A finite value keeps message passing
// numerically stable while still dominating every achievable soft cost.
const HardPenalty = 1e9

// UnaryConstant is Pr_const of the paper's Eq. 2: the uniform unary cost of a
// candidate product when the host states no preference for it.  The pairwise
// similarity term of Eq. 3 carries weight 1 against it.
const UnaryConstant = 0.01

// edgeRec is the internal edge representation: endpoints plus the index of
// the interned cost matrix.
type edgeRec struct {
	U, V int
	Mat  int
}

// Graph is a discrete pairwise MRF with flat, interned storage.
type Graph struct {
	labels [][]string // optional label names per node (for decoding)
	counts []int      // number of labels per node
	off    []int      // off[i] is the start of node i's unary block; len(off) == NumNodes()+1
	unary  []float64  // flat unary costs

	edges []edgeRec
	mats  []*Matrix // interned distinct cost matrices
	matsT []*Matrix // lazily built transposes, same indexing as mats
	// interning indexes: content hash -> candidate matrix ids, and identity
	// of a caller-shared nested matrix -> matrix id.
	byContent map[uint64][]int
	byPtr     map[matIdentity]int

	// CSR adjacency (node -> incident edge indices), rebuilt lazily.
	adjOff   []int
	adjList  []int
	adjPos   []int // ensureAdj's scratch
	adjDirty bool
	// generation counts structural mutations (see Generation).
	generation uint64
}

// NewGraph creates a graph with the given number of labels per node.  Every
// node must have at least one label.
func NewGraph(labelCounts []int) (*Graph, error) {
	if len(labelCounts) == 0 {
		return nil, errors.New("mrf: graph needs at least one node")
	}
	g := &Graph{
		counts:    append([]int(nil), labelCounts...),
		off:       make([]int, len(labelCounts)+1),
		labels:    make([][]string, len(labelCounts)),
		byContent: make(map[uint64][]int),
		byPtr:     make(map[matIdentity]int),
	}
	total := 0
	for i, k := range labelCounts {
		if k <= 0 {
			return nil, fmt.Errorf("mrf: node %d has %d labels; need at least 1", i, k)
		}
		g.off[i] = total
		total += k
	}
	g.off[len(labelCounts)] = total
	g.unary = make([]float64, total)
	return g, nil
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.counts) }

// NumEdges returns the number of pairwise factors.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumLabels returns the label-space size of the node.
func (g *Graph) NumLabels(node int) int { return g.counts[node] }

// MaxLabels returns the largest label-space size over all nodes.
func (g *Graph) MaxLabels() int {
	max := 0
	for _, k := range g.counts {
		if k > max {
			max = k
		}
	}
	return max
}

// NumMatrices returns the number of distinct (interned) pairwise cost
// matrices; NumEdges()/NumMatrices() is the sharing factor.
func (g *Graph) NumMatrices() int { return len(g.mats) }

// SetLabelNames attaches human-readable names to a node's labels; purely
// informational (used when decoding assignments).
func (g *Graph) SetLabelNames(node int, names []string) error {
	if node < 0 || node >= len(g.counts) {
		return fmt.Errorf("mrf: node %d out of range", node)
	}
	if len(names) != g.counts[node] {
		return fmt.Errorf("mrf: node %d has %d labels but %d names given", node, g.counts[node], len(names))
	}
	g.labels[node] = append([]string(nil), names...)
	return nil
}

// LabelName returns the attached name of a node label ("" if unnamed).
func (g *Graph) LabelName(node, label int) string {
	if g.labels[node] == nil {
		return ""
	}
	return g.labels[node][label]
}

// SetUnary sets φ_node(label) = cost.
func (g *Graph) SetUnary(node, label int, cost float64) error {
	if err := g.checkNodeLabel(node, label); err != nil {
		return err
	}
	g.unary[g.off[node]+label] = cost
	return nil
}

// AddUnary adds cost to φ_node(label).
func (g *Graph) AddUnary(node, label int, cost float64) error {
	if err := g.checkNodeLabel(node, label); err != nil {
		return err
	}
	g.unary[g.off[node]+label] += cost
	return nil
}

// Unary returns φ_node(label).
func (g *Graph) Unary(node, label int) float64 { return g.unary[g.off[node]+label] }

// UnaryRow returns a copy of the unary cost vector of a node.
func (g *Graph) UnaryRow(node int) []float64 {
	out := make([]float64, g.counts[node])
	copy(out, g.UnaryView(node))
	return out
}

// UnaryView returns the node's unary cost vector as a view into the flat
// buffer.  Callers must treat it as read-only; solvers use it to avoid the
// per-visit copy of UnaryRow on the hot path.
func (g *Graph) UnaryView(node int) []float64 {
	return g.unary[g.off[node]:g.off[node+1]:g.off[node+1]]
}

func (g *Graph) checkNodeLabel(node, label int) error {
	if node < 0 || node >= len(g.counts) {
		return fmt.Errorf("mrf: node %d out of range", node)
	}
	if label < 0 || label >= g.counts[node] {
		return fmt.Errorf("mrf: label %d out of range for node %d (%d labels)", label, node, g.counts[node])
	}
	return nil
}

func (g *Graph) checkEdge(u, v int, cost [][]float64) error {
	if u == v {
		return fmt.Errorf("mrf: self edge on node %d", u)
	}
	if u < 0 || u >= len(g.counts) || v < 0 || v >= len(g.counts) {
		return fmt.Errorf("mrf: edge (%d,%d) out of range", u, v)
	}
	if err := CheckMatrix(cost, g.counts[u], g.counts[v]); err != nil {
		return fmt.Errorf("mrf: edge (%d,%d): %w", u, v, err)
	}
	return nil
}

// matIdentity identifies a caller-owned nested matrix for identity
// interning: shape plus the addresses of the first and last rows' storage.
// Two matrices can only collide if they share both boundary rows, which the
// AddEdgeShared contract (one matrix reused verbatim across edges) rules
// out.
type matIdentity struct {
	rows, cols  int
	first, last *float64
}

func identityOf(cost [][]float64) matIdentity {
	return matIdentity{
		rows:  len(cost),
		cols:  len(cost[0]),
		first: &cost[0][0],
		last:  &cost[len(cost)-1][0],
	}
}

// intern stores the matrix if no identical matrix exists yet and returns the
// matrix id.
func (g *Graph) intern(m *Matrix) int {
	h := m.contentHash()
	for _, id := range g.byContent[h] {
		if g.mats[id].equalContent(m) {
			return id
		}
	}
	id := len(g.mats)
	g.mats = append(g.mats, m)
	g.byContent[h] = append(g.byContent[h], id)
	return id
}

func (g *Graph) appendEdge(u, v, mat int) int {
	idx := len(g.edges)
	g.edges = append(g.edges, edgeRec{U: u, V: v, Mat: mat})
	g.structureChanged()
	return idx
}

// structureChanged invalidates what is derived from the node and edge lists:
// the lazy CSR adjacency here and, through Generation, what callers derived.
func (g *Graph) structureChanged() {
	g.adjDirty = true
	g.generation++
}

// Generation changes whenever a node or an edge is added or removed, and only
// then (unary costs do not count): a long-lived caller compares it to tell
// whether what it derived from the topology — a kernel's half-edge incidence
// — is still current.
func (g *Graph) Generation() uint64 { return g.generation }

// AddEdge adds a pairwise factor between u and v with the dense cost matrix
// cost[labelU][labelV].  The matrix is copied into flat storage and interned:
// edges with identical costs share one buffer.  It returns the edge index.
func (g *Graph) AddEdge(u, v int, cost [][]float64) (int, error) {
	if err := g.checkEdge(u, v, cost); err != nil {
		return 0, err
	}
	return g.appendEdge(u, v, g.intern(flatten(cost))), nil
}

// AddEdgeShared is like AddEdge but interns by matrix identity: repeated
// calls with the same nested matrix skip the content hash and reuse the
// already-flattened buffer directly.  It exists so that large networks in
// which many edges carry the identical cost matrix (e.g. the per-service
// similarity matrix used on every link of the scalability experiments) pay
// neither memory nor hashing proportional to edges × labels².  The matrix is
// copied on first sight; later mutations of the caller's nested slices are
// NOT reflected in the graph.
func (g *Graph) AddEdgeShared(u, v int, cost [][]float64) (int, error) {
	if err := g.checkEdge(u, v, cost); err != nil {
		return 0, err
	}
	key := identityOf(cost)
	id, ok := g.byPtr[key]
	if !ok {
		id = g.intern(flatten(cost))
		g.byPtr[key] = id
	}
	return g.appendEdge(u, v, id), nil
}

// ForEachEdge calls f for every edge with its index, endpoints and interned
// matrix id, walking the flat edge records directly.  It is the bulk-read
// primitive of the coarsening and restriction layers: one indexed pass
// instead of NumEdges() paired EdgeEndpoints/EdgeMatID calls.
func (g *Graph) ForEachEdge(f func(idx, u, v, mat int)) {
	for idx := range g.edges {
		e := &g.edges[idx]
		f(idx, e.U, e.V, e.Mat)
	}
}

// AddEdgeFlat adds a pairwise factor between u and v whose cost matrix is
// given as one row-major flat buffer (data[i*cols+j] = cost(labelU=i,
// labelV=j)).  The buffer is copied and content-interned exactly like
// AddEdge, but without requiring callers that already hold flat storage —
// the coarsener's accumulated parallel-edge matrices — to materialise a
// nested [][]float64 per edge.  It returns the edge index.
func (g *Graph) AddEdgeFlat(u, v int, rows, cols int, data []float64) (int, error) {
	if u == v {
		return 0, fmt.Errorf("mrf: self edge on node %d", u)
	}
	if u < 0 || u >= len(g.counts) || v < 0 || v >= len(g.counts) {
		return 0, fmt.Errorf("mrf: edge (%d,%d) out of range", u, v)
	}
	if rows != g.counts[u] || cols != g.counts[v] {
		return 0, fmt.Errorf("mrf: edge (%d,%d): matrix is %dx%d, want %dx%d",
			u, v, rows, cols, g.counts[u], g.counts[v])
	}
	if len(data) != rows*cols {
		return 0, fmt.Errorf("mrf: edge (%d,%d): flat matrix has %d entries, want %d",
			u, v, len(data), rows*cols)
	}
	m := &Matrix{Rows: rows, Cols: cols, Data: append([]float64(nil), data...)}
	return g.appendEdge(u, v, g.intern(m)), nil
}

// EdgeEndpoints returns the two endpoints of the idx-th edge.
func (g *Graph) EdgeEndpoints(idx int) (u, v int) {
	e := g.edges[idx]
	return e.U, e.V
}

// EdgeMatID returns the interned matrix id of the idx-th edge.
func (g *Graph) EdgeMatID(idx int) int { return g.edges[idx].Mat }

// Mat returns the interned matrix with the given id.
func (g *Graph) Mat(id int) *Matrix { return g.mats[id] }

// EdgeMat returns the cost matrix of the idx-th edge (row index = U label).
func (g *Graph) EdgeMat(idx int) *Matrix { return g.mats[g.edges[idx].Mat] }

// EdgeMatT returns the transposed cost matrix of the idx-th edge (row index =
// V label).  Transposes are interned alongside the originals and built
// lazily; solvers touch them once during single-threaded setup so that the
// shared cache is safe to read concurrently afterwards.
func (g *Graph) EdgeMatT(idx int) *Matrix {
	id := g.edges[idx].Mat
	for len(g.matsT) < len(g.mats) {
		g.matsT = append(g.matsT, nil)
	}
	if g.matsT[id] == nil {
		g.matsT[id] = g.mats[id].transposed()
	}
	return g.matsT[id]
}

// ensureAdj (re)builds the CSR adjacency after structural mutations, refilling
// the previous arrays in place when they are large enough: a long-lived graph
// rebuilds it once per structural delta.
func (g *Graph) ensureAdj() {
	if !g.adjDirty && g.adjOff != nil {
		return
	}
	n := len(g.counts)
	// pos[i] first counts node i's degree, then walks its adjacency block.
	pos := slices.Grow(g.adjPos[:0], n)[:n]
	clear(pos)
	for _, e := range g.edges {
		pos[e.U]++
		pos[e.V]++
	}
	g.adjOff = slices.Grow(g.adjOff[:0], n+1)[:n+1]
	g.adjOff[0] = 0
	for i := 0; i < n; i++ {
		g.adjOff[i+1] = g.adjOff[i] + pos[i]
	}
	g.adjList = slices.Grow(g.adjList[:0], g.adjOff[n])[:g.adjOff[n]]
	copy(pos, g.adjOff[:n])
	for idx, e := range g.edges {
		g.adjList[pos[e.U]] = idx
		pos[e.U]++
		g.adjList[pos[e.V]] = idx
		pos[e.V]++
	}
	g.adjPos = pos
	g.adjDirty = false
}

// AdjacentEdges returns the indices of the edges incident to the node.
func (g *Graph) AdjacentEdges(node int) []int {
	g.ensureAdj()
	return append([]int(nil), g.IncidentEdges(node)...)
}

// IncidentEdges returns the incident edge indices of a node as a view into
// the flat CSR adjacency (sorted by edge index).  Callers must treat it as
// read-only and must not hold it across AddEdge calls.
func (g *Graph) IncidentEdges(node int) []int {
	g.ensureAdj()
	return g.adjList[g.adjOff[node]:g.adjOff[node+1]:g.adjOff[node+1]]
}

// Degree returns the number of edges incident to the node.
func (g *Graph) Degree(node int) int {
	g.ensureAdj()
	return g.adjOff[node+1] - g.adjOff[node]
}

// PairwiseCost returns ψ of the idx-th edge for the given endpoint labels,
// where lu indexes the edge's U node and lv its V node.
func (g *Graph) PairwiseCost(idx, lu, lv int) float64 {
	return g.mats[g.edges[idx].Mat].At(lu, lv)
}

// Energy evaluates E(x) for a full labeling (one label index per node).
func (g *Graph) Energy(labels []int) (float64, error) {
	if len(labels) != len(g.counts) {
		return 0, fmt.Errorf("mrf: labeling has %d entries, want %d", len(labels), len(g.counts))
	}
	total := 0.0
	for i, l := range labels {
		if l < 0 || l >= g.counts[i] {
			return 0, fmt.Errorf("mrf: label %d out of range for node %d", l, i)
		}
		total += g.unary[g.off[i]+l]
	}
	for _, e := range g.edges {
		total += g.mats[e.Mat].At(labels[e.U], labels[e.V])
	}
	return total, nil
}

// MustEnergy is Energy for labelings already known to be valid; it panics on
// an invalid labeling (which would indicate a solver bug).
func (g *Graph) MustEnergy(labels []int) float64 {
	e, err := g.Energy(labels)
	if err != nil {
		panic(err)
	}
	return e
}

// TrivialLowerBound returns Σ_i min_x φ_i(x) + Σ_e min ψ_e, a valid (if loose)
// lower bound on the minimum energy.  Per-matrix minima are computed once per
// distinct matrix.
func (g *Graph) TrivialLowerBound() float64 {
	lb := 0.0
	for i := range g.counts {
		lb += minOf(g.UnaryView(i))
	}
	if len(g.edges) == 0 {
		return lb
	}
	mins := make([]float64, len(g.mats))
	for id, m := range g.mats {
		mins[id] = m.Min()
	}
	for _, e := range g.edges {
		lb += mins[e.Mat]
	}
	return lb
}

// GreedyLabeling returns the labeling that minimises each node's unary cost
// independently (ignoring pairwise terms).  Useful as a solver starting point
// and as a baseline in tests.
func (g *Graph) GreedyLabeling() []int {
	labels := make([]int, len(g.counts))
	for i := range g.counts {
		row := g.UnaryView(i)
		best, bestV := 0, math.Inf(1)
		for l, v := range row {
			if v < bestV {
				best, bestV = l, v
			}
		}
		labels[i] = best
	}
	return labels
}

// Validate checks internal consistency (no NaN costs).
func (g *Graph) Validate() error {
	for i := range g.counts {
		for l, v := range g.UnaryView(i) {
			if math.IsNaN(v) {
				return fmt.Errorf("mrf: unary cost of node %d label %d is NaN", i, l)
			}
		}
	}
	for id, m := range g.mats {
		for _, v := range m.Data {
			if math.IsNaN(v) {
				for idx, e := range g.edges {
					if e.Mat == id {
						return fmt.Errorf("mrf: pairwise cost of edge %d is NaN", idx)
					}
				}
				return fmt.Errorf("mrf: pairwise cost matrix %d is NaN", id)
			}
		}
	}
	return nil
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, v := range xs {
		if v < m {
			m = v
		}
	}
	return m
}

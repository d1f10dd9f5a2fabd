// Package coarsen contracts a diversification MRF into a hierarchy of
// progressively smaller, energy-consistent problems — the "coarsen" half of
// the multilevel coarsen→solve→project→refine scheme (internal/multilevel).
//
// One contraction step merges node pairs selected by a deterministic
// matching over the graph's CSR adjacency.  Merged nodes must share a label
// count; a coarse node then carries one label decision for all of its fine
// members.  The merge preserves the energy exactly under that restriction:
//
//   - merged unary rows are summed,
//   - an edge internal to a merged pair contributes its diagonal ψ(x,x) to
//     the coarse unary (both endpoints take the same coarse label),
//   - parallel fine edges between the same two coarse nodes are accumulated
//     into one summed matrix, content-interned so the coarse graph keeps the
//     fine graph's shared-matrix structure.
//
// Hence E_coarse(x_c) == E_fine(Project(x_c)) for every coarse labeling —
// the invariant the property tests pin and the refinement loop relies on.
//
// Matching policy.  Diversification objectives penalise equal labels on
// adjacent nodes, so contracting an edge forces its endpoints onto the same
// label — exactly what the objective resists.  The matcher therefore prefers
// distance-2 partners (two nodes sharing a neighbour but not an edge): they
// may share a label freely, so the projected coarse solution is locally
// near-optimal and the refinement frontier stays small.  Nodes with no
// eligible distance-2 partner fall back to an adjacent partner (choosing the
// incident edge with the smallest summed diagonal, i.e. the cheapest
// equal-label penalty) and otherwise stay unmatched.  Low-degree nodes are
// matched first: they have the fewest partner options and are the cheapest
// to force equal.
package coarsen

import (
	"errors"
	"fmt"

	"netdiversity/internal/mrf"
)

const (
	// DefaultCoarsestSize is the level size at which the multilevel solver
	// stops coarsening and hands the level to its base solver.
	DefaultCoarsestSize = 1024
	// MaxLevels bounds the number of coarse levels built on top of the fine
	// graph.
	MaxLevels = 24
	// MinReduction is the minimum fractional node-count reduction a
	// contraction must achieve to be kept; a stalled contraction ends the
	// hierarchy.
	MinReduction = 0.05
)

// Hierarchy is a multilevel coarsening of one MRF: Levels[0] is the original
// (fine) graph and Levels[l+1] the contraction of Levels[l].  Maps[l] maps
// every node of level l to its coarse node in level l+1 (len(Maps) ==
// len(Levels)-1).
type Hierarchy struct {
	Levels []*mrf.Graph
	Maps   [][]int32
}

// NumLevels returns the number of levels including the fine graph.
func (h *Hierarchy) NumLevels() int { return len(h.Levels) }

// Coarsest returns the smallest graph of the hierarchy.
func (h *Hierarchy) Coarsest() *mrf.Graph { return h.Levels[len(h.Levels)-1] }

// Project lifts a labeling of level `from` down to level `to` (from > to):
// every fine node takes its coarse ancestor's label.
func (h *Hierarchy) Project(labels []int, from, to int) ([]int, error) {
	if from <= to || from >= len(h.Levels) || to < 0 {
		return nil, fmt.Errorf("coarsen: cannot project level %d to %d of %d levels", from, to, len(h.Levels))
	}
	if len(labels) != h.Levels[from].NumNodes() {
		return nil, fmt.Errorf("coarsen: labeling has %d entries, level %d has %d nodes",
			len(labels), from, h.Levels[from].NumNodes())
	}
	cur := labels
	for l := from; l > to; l-- {
		m := h.Maps[l-1]
		fine := make([]int, len(m))
		for i, c := range m {
			fine[i] = cur[c]
		}
		cur = fine
	}
	return cur, nil
}

// Build constructs the hierarchy for a graph, coarsening until a level has at
// most coarsestSize nodes.  Construction is fully deterministic: the same
// graph always yields the same hierarchy.
func Build(g *mrf.Graph, coarsestSize int) (*Hierarchy, error) {
	if g == nil {
		return nil, errors.New("coarsen: nil graph")
	}
	h := &Hierarchy{Levels: []*mrf.Graph{g}}
	for len(h.Levels)-1 < MaxLevels {
		cur := h.Coarsest()
		if cur.NumNodes() <= coarsestSize {
			break
		}
		coarse, m, err := Contract(cur)
		if err != nil {
			return nil, err
		}
		reduced := cur.NumNodes() - coarse.NumNodes()
		if float64(reduced) < MinReduction*float64(cur.NumNodes()) {
			break // contraction stalled; solving this level again buys nothing
		}
		h.Levels = append(h.Levels, coarse)
		h.Maps = append(h.Maps, m)
	}
	return h, nil
}

// Contract performs one coarsening step: a deterministic matching followed
// by the merged-potential construction.  It returns the coarse graph and the
// fine→coarse node map.
func Contract(g *mrf.Graph) (*mrf.Graph, []int32, error) {
	if g == nil {
		return nil, nil, errors.New("coarsen: nil graph")
	}
	n := g.NumNodes()
	partner := match(g)

	// Assign coarse ids in fine-node order so the construction is stable.
	f2c := make([]int32, n)
	for i := range f2c {
		f2c[i] = -1
	}
	var coarseCounts []int
	for i := 0; i < n; i++ {
		if f2c[i] >= 0 {
			continue
		}
		id := int32(len(coarseCounts))
		f2c[i] = id
		if p := partner[i]; p >= 0 {
			f2c[p] = id
		}
		coarseCounts = append(coarseCounts, g.NumLabels(i))
	}

	coarse, err := buildCoarse(g, f2c, coarseCounts)
	if err != nil {
		return nil, nil, err
	}
	return coarse, f2c, nil
}

// buildCoarse performs the merged-potential construction for an arbitrary
// fine→coarse map: member unaries sum, edges internal to one coarse node
// fold their diagonal into its unary (members share the coarse label, and
// every merge policy guarantees equal label counts within a coarse node),
// and parallel fine edges between the same coarse pair accumulate into one
// content-interned matrix.  The construction preserves energy exactly:
// E_coarse(x) == E_fine(x∘f2c) for every coarse labeling x.
func buildCoarse(g *mrf.Graph, f2c []int32, coarseCounts []int) (*mrf.Graph, error) {
	coarse, err := mrf.NewGraph(coarseCounts)
	if err != nil {
		return nil, fmt.Errorf("coarsen: %w", err)
	}

	// Merged unaries: sum the member rows.
	for i := 0; i < g.NumNodes(); i++ {
		c := int(f2c[i])
		row := g.UnaryView(i)
		for l, v := range row {
			if v != 0 {
				if err := coarse.AddUnary(c, l, v); err != nil {
					return nil, fmt.Errorf("coarsen: %w", err)
				}
			}
		}
	}

	// Dense accumulation (no hash map on the hot path) when every coarse
	// node has the same label count and the pair table fits in memory;
	// generic map-keyed accumulation otherwise.
	uniform := true
	for _, c := range coarseCounts {
		if c != coarseCounts[0] {
			uniform = false
			break
		}
	}
	nc := len(coarseCounts)
	if uniform && nc*nc <= maxDensePairs {
		err = accumulateDense(g, coarse, f2c, nc, coarseCounts[0])
	} else {
		err = accumulateSparse(g, coarse, f2c)
	}
	if err != nil {
		return nil, err
	}
	return coarse, nil
}

// maxDensePairs bounds the dense pair table of accumulateDense: numCoarse²
// int32 slots (16 MB at the 2048-node default aggregation target).
const maxDensePairs = 4 << 20

// accumulateDense accumulates coarse edges through a flat pair table indexed
// by cu*numCoarse+cv — the O(1)-per-edge path the single-jump aggregation of
// million-host graphs relies on.  All coarse nodes share one label count k.
func accumulateDense(g *mrf.Graph, coarse *mrf.Graph, f2c []int32, nc, k int) error {
	slot := make([]int32, nc*nc) // canonical pair -> 1+index into bufs
	type pair struct{ u, v int32 }
	var pairs []pair
	var data []float64 // bufs[i] is data[i*k*k : (i+1)*k*k]
	kk := k * k
	var outerErr error
	g.ForEachEdge(func(idx, u, v, mat int) {
		if outerErr != nil {
			return
		}
		cu, cv := f2c[u], f2c[v]
		m := g.Mat(mat)
		if cu == cv {
			for x := 0; x < k; x++ {
				if err := coarse.AddUnary(int(cu), x, m.At(x, x)); err != nil {
					outerErr = fmt.Errorf("coarsen: %w", err)
					return
				}
			}
			return
		}
		a, b := cu, cv
		transposed := false
		if a > b {
			a, b = b, a
			transposed = true
		}
		s := int(a)*nc + int(b)
		bi := slot[s]
		if bi == 0 {
			pairs = append(pairs, pair{a, b})
			data = append(data, make([]float64, kk)...)
			bi = int32(len(pairs))
			slot[s] = bi
		}
		dst := data[int(bi-1)*kk : int(bi)*kk]
		if m.Rows != k || m.Cols != k {
			outerErr = fmt.Errorf("coarsen: edge %d matrix %dx%d on uniform coarse graph with %d labels",
				idx, m.Rows, m.Cols, k)
			return
		}
		if transposed {
			for x := 0; x < k; x++ {
				row := m.Row(x)
				for y, w := range row {
					dst[y*k+x] += w
				}
			}
		} else {
			for x := 0; x < k; x++ {
				row := m.Row(x)
				dst := dst[x*k : (x+1)*k]
				for y, w := range row {
					dst[y] += w
				}
			}
		}
	})
	if outerErr != nil {
		return outerErr
	}
	for i, p := range pairs {
		if _, err := coarse.AddEdgeFlat(int(p.u), int(p.v), k, k, data[i*kk:(i+1)*kk]); err != nil {
			return fmt.Errorf("coarsen: %w", err)
		}
	}
	return nil
}

// accumulateSparse is the generic accumulation path: coarse pairs keyed
// through a map, per-pair matrix dimensions taken from the coarse label
// counts, fine matrices transposed as orientation requires.
func accumulateSparse(g *mrf.Graph, coarse *mrf.Graph, f2c []int32) error {
	type accKey struct{ u, v int32 }
	acc := make(map[accKey]int, g.NumEdges()/2+1) // coarse pair -> index into bufs
	type accBuf struct {
		u, v       int32
		rows, cols int
		data       []float64
	}
	var bufs []accBuf
	var outerErr error
	g.ForEachEdge(func(idx, u, v, mat int) {
		if outerErr != nil {
			return
		}
		cu, cv := f2c[u], f2c[v]
		m := g.Mat(mat)
		if cu == cv {
			// Internal edge: both members take the coarse label, so the edge
			// contributes its diagonal to the coarse unary.  Merged nodes
			// share a label count, so the matrix is square.
			k := coarse.NumLabels(int(cu))
			for x := 0; x < k; x++ {
				if err := coarse.AddUnary(int(cu), x, m.At(x, x)); err != nil {
					outerErr = fmt.Errorf("coarsen: %w", err)
					return
				}
			}
			return
		}
		// Orient the accumulated matrix so rows index the lower coarse id.
		a, b := cu, cv
		if a > b {
			a, b = b, a
		}
		// The fine matrix rows are indexed by fine U's labels; they align
		// with the coarse rows exactly when U's coarse node is the row
		// endpoint a.
		rowIsU := f2c[u] == a
		key := accKey{a, b}
		bi, ok := acc[key]
		if !ok {
			bi = len(bufs)
			acc[key] = bi
			bufs = append(bufs, accBuf{
				u: a, v: b,
				rows: coarse.NumLabels(int(a)),
				cols: coarse.NumLabels(int(b)),
				data: make([]float64, coarse.NumLabels(int(a))*coarse.NumLabels(int(b))),
			})
		}
		buf := &bufs[bi]
		if m.Rows == buf.rows && m.Cols == buf.cols && rowIsU {
			for x := 0; x < m.Rows; x++ {
				row := m.Row(x)
				dst := buf.data[x*buf.cols : (x+1)*buf.cols]
				for y, w := range row {
					dst[y] += w
				}
			}
		} else if m.Cols == buf.rows && m.Rows == buf.cols && !rowIsU {
			for x := 0; x < m.Rows; x++ {
				row := m.Row(x)
				for y, w := range row {
					buf.data[y*buf.cols+x] += w
				}
			}
		} else {
			outerErr = fmt.Errorf("coarsen: edge %d matrix %dx%d does not fit coarse pair (%d,%d) %dx%d",
				idx, m.Rows, m.Cols, a, b, buf.rows, buf.cols)
		}
	})
	if outerErr != nil {
		return outerErr
	}
	for i := range bufs {
		b := &bufs[i]
		if _, err := coarse.AddEdgeFlat(int(b.u), int(b.v), b.rows, b.cols, b.data); err != nil {
			return fmt.Errorf("coarsen: %w", err)
		}
	}
	return nil
}

// maxScanEdges bounds the incident edges examined per node during matching.
// Coarse levels densify (the degree roughly doubles per contraction), and an
// uncapped distance-2 scan costs degree² per node — quadratic blowup on deep
// hierarchies.  The cap keeps matching linear; it only censors candidates on
// already-dense levels where partner choice matters least.
const maxScanEdges = 32

// match computes the deterministic contraction matching: partner[i] is the
// node merged with i, or -1.  Nodes are visited in increasing-degree order
// (ties by index); each unmatched node first looks for an unmatched
// distance-2 partner with the same label count (lowest index wins), then
// falls back to the unmatched direct neighbour whose connecting matrices
// have the smallest summed diagonal.
func match(g *mrf.Graph) []int32 {
	n := g.NumNodes()
	partner := make([]int32, n)
	for i := range partner {
		partner[i] = -1
	}
	order := byDegree(g)
	// seen marks candidate distance-2 partners per visit; generation
	// counters avoid clearing it between nodes.
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	for vi, node := range order {
		if partner[node] >= 0 {
			continue
		}
		k := g.NumLabels(node)
		gen := int32(vi)
		// Mark direct neighbours so they are not chosen as distance-2
		// partners (and collect them for the fallback).
		best2 := -1
		inc := g.IncidentEdges(node)
		for _, e := range inc {
			u, v := g.EdgeEndpoints(e)
			nb := u
			if nb == node {
				nb = v
			}
			seen[nb] = gen
		}
		seen[node] = gen
		scan := inc
		if len(scan) > maxScanEdges {
			scan = scan[:maxScanEdges]
		}
		for _, e := range scan {
			u, v := g.EdgeEndpoints(e)
			nb := u
			if nb == node {
				nb = v
			}
			inc2 := g.IncidentEdges(nb)
			if len(inc2) > maxScanEdges {
				inc2 = inc2[:maxScanEdges]
			}
			for _, e2 := range inc2 {
				u2, v2 := g.EdgeEndpoints(e2)
				cand := u2
				if cand == nb {
					cand = v2
				}
				if seen[cand] == gen || partner[cand] >= 0 || g.NumLabels(cand) != k {
					continue
				}
				seen[cand] = gen // dedupe further sightings
				if best2 < 0 || cand < best2 {
					best2 = cand
				}
			}
		}
		if best2 >= 0 {
			partner[node] = int32(best2)
			partner[best2] = int32(node)
			continue
		}
		// Fallback: cheapest adjacent partner (smallest equal-label penalty).
		bestAdj, bestDiag := -1, 0.0
		for _, e := range g.IncidentEdges(node) {
			u, v := g.EdgeEndpoints(e)
			nb := u
			if nb == node {
				nb = v
			}
			if partner[nb] >= 0 || g.NumLabels(nb) != k {
				continue
			}
			d := diagSum(g.EdgeMat(e))
			if bestAdj < 0 || d < bestDiag || (d == bestDiag && nb < bestAdj) {
				bestAdj, bestDiag = nb, d
			}
		}
		if bestAdj >= 0 {
			partner[node] = int32(bestAdj)
			partner[bestAdj] = int32(node)
		}
	}
	return partner
}

// byDegree returns the node indices sorted by (degree, index) using a linear
// counting sort — the matcher's visit order must not cost O(n log n) on
// million-node levels.
func byDegree(g *mrf.Graph) []int {
	n := g.NumNodes()
	maxDeg := 0
	for i := 0; i < n; i++ {
		if d := g.Degree(i); d > maxDeg {
			maxDeg = d
		}
	}
	counts := make([]int, maxDeg+2)
	for i := 0; i < n; i++ {
		counts[g.Degree(i)+1]++
	}
	for d := 1; d < len(counts); d++ {
		counts[d] += counts[d-1]
	}
	out := make([]int, n)
	for i := 0; i < n; i++ { // increasing index within one degree bucket
		d := g.Degree(i)
		out[counts[d]] = i
		counts[d]++
	}
	return out
}

// diagSum returns the summed diagonal of a matrix — the total equal-label
// penalty its edge would fold into a merged node.  The matcher only compares
// square matrices (endpoints with matching label counts).
func diagSum(m *mrf.Matrix) float64 {
	k := m.Rows
	if m.Cols < k {
		k = m.Cols
	}
	s := 0.0
	for x := 0; x < k; x++ {
		s += m.At(x, x)
	}
	return s
}

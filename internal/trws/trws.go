// Package trws implements the sequential tree-reweighted message passing
// algorithm (TRW-S) of Kolmogorov, the solver the paper uses to minimise the
// diversification MRF (Section V-C).
//
// The implementation follows the min-sum sequential schedule: nodes are
// processed in a fixed order; a forward pass sends messages to
// higher-indexed neighbours and a backward pass to lower-indexed neighbours,
// with per-node weights γ_i = 1 / max(#forward neighbours, #backward
// neighbours).  A primal labeling is decoded after every iteration; the
// best-labeling tracking, convergence rule and cancellation live in the
// shared solve driver — this package contains only the message kernel.
package trws

import (
	"fmt"
	"math"
	"slices"

	"netdiversity/internal/mrf"
	"netdiversity/internal/solve"
)

func init() {
	solve.Register("trws", func() solve.Kernel { return &Kernel{} })
}

// Kernel is the TRW-S message-passing kernel.
type Kernel struct {
	g    *mrf.Graph
	opts solve.Options

	n      int
	counts []int
	inc    solve.Incidence
	// Flat message storage: msg[msgU[e]:] is the message into the U endpoint
	// of edge e, msg[msgV[e]:] the message into the V endpoint.
	msg  []float64
	msgU []int
	msgV []int
	// gamma[i] = 1 / max(#forward, #backward) neighbours of node i.
	gamma []float64
	// scratch reused across passes: one node's aggregate, and the labeling
	// decode returns (the driver copies it before the next Step).
	aggBuf  []float64
	decoded []int

	// Warm-start state (see WarmStart): passes visit only active nodes, the
	// MRF is conditioned on the prior labels of the inactive boundary, and
	// the active set grows wherever the decoded labeling diverges from the
	// prior.
	warm   bool
	prior  []int
	active []bool

	iter int
}

// Init builds the flat workspace and touches the graph's lazy caches
// (incidence CSR, transposed matrices) so Step only reads them.  On a
// retained kernel value (see solve.Kernel) it resets all solver state, keeps
// what depends only on the topology while the topology is unchanged, and
// refills the previous solve's arenas in place otherwise.
func (k *Kernel) Init(g *mrf.Graph, opts solve.Options) error {
	k.g = g
	k.opts = opts
	k.iter = 0
	k.warm = false
	if k.inc.Build(g) {
		k.layout()
	}
	clear(k.msg)
	return nil
}

// layout derives what depends only on topology and label counts: message
// offsets, the message arena's size and the node weights.
func (k *Kernel) layout() {
	g := k.g
	k.n = g.NumNodes()
	k.counts = slices.Grow(k.counts[:0], k.n)[:k.n]
	for i := 0; i < k.n; i++ {
		k.counts[i] = g.NumLabels(i)
	}

	var total int
	k.msgU, k.msgV, total = solve.MessageOffsets(g, k.msgU, k.msgV)
	k.msg = slices.Grow(k.msg[:0], total)[:total]

	k.gamma = slices.Grow(k.gamma[:0], k.n)[:k.n]
	for i := 0; i < k.n; i++ {
		fwd, bwd := 0, 0
		for _, he := range k.incident(i) {
			if int(he.Other) > i {
				fwd++
			} else {
				bwd++
			}
		}
		d := fwd
		if bwd > d {
			d = bwd
		}
		if d == 0 {
			d = 1
		}
		k.gamma[i] = 1 / float64(d)
	}
	k.aggBuf = slices.Grow(k.aggBuf[:0], g.MaxLabels())[:g.MaxLabels()]
}

// WarmStart switches the kernel to incremental mode (solve.WarmKernel).
// Message passing runs only over the active (dirty) region; every inactive
// node is treated as fixed at its prior label, so the active region solves
// the original MRF conditioned on the unchanged boundary.  When a decoded
// label diverges from the prior, the node's neighbours activate and the
// frontier grows — untouched regions are never swept.
func (k *Kernel) WarmStart(labels []int, dirty []bool) error {
	if len(labels) != k.n || len(dirty) != k.n {
		return fmt.Errorf("trws: warm start needs %d labels and dirty flags", k.n)
	}
	k.prior = append(k.prior[:0], labels...)
	k.active = append(k.active[:0], dirty...)
	k.warm = true
	return nil
}

// Step runs one forward+backward sweep and decodes a primal labeling into the
// kernel's own buffer: the driver scores and copies it before the next Step
// overwrites it.
func (k *Kernel) Step() solve.Step {
	k.pass(true)
	k.pass(false)
	k.iter++
	labels := k.decode()
	if k.warm {
		// Grow the dirty frontier where the decode moved off the prior
		// labeling, then absorb the decode as the new conditioning boundary.
		for node := 0; node < k.n; node++ {
			if k.active[node] && labels[node] != k.prior[node] {
				for _, he := range k.incident(node) {
					k.active[he.Other] = true
				}
			}
		}
		copy(k.prior, labels)
	}
	return solve.Step{
		Labels:    labels,
		Exhausted: k.iter >= k.opts.MaxIterations,
	}
}

func (k *Kernel) incident(node int) []solve.HalfEdge {
	return k.inc.Of(node)
}

// inMessage returns the message arriving at the node identified by the half
// edge (i.e. the message stored for that endpoint).
func (k *Kernel) inMessage(he solve.HalfEdge) []float64 {
	e := int(he.Edge)
	if he.IsU {
		return k.msg[k.msgU[e] : k.msgU[e]+k.counts[k.edgeU(e)]]
	}
	return k.msg[k.msgV[e] : k.msgV[e]+k.counts[k.edgeV(e)]]
}

// outMessage returns the slot for the message leaving the node of the half
// edge toward the opposite endpoint.
func (k *Kernel) outMessage(he solve.HalfEdge) []float64 {
	e := int(he.Edge)
	if he.IsU {
		return k.msg[k.msgV[e] : k.msgV[e]+k.counts[k.edgeV(e)]]
	}
	return k.msg[k.msgU[e] : k.msgU[e]+k.counts[k.edgeU(e)]]
}

func (k *Kernel) edgeU(e int) int { u, _ := k.g.EdgeEndpoints(e); return u }
func (k *Kernel) edgeV(e int) int { _, v := k.g.EdgeEndpoints(e); return v }

// aggregate computes a_i(x) = φ_i(x) + Σ_j m_{j→i}(x) into dst.  In warm
// mode the message from an inactive neighbour is replaced by the pairwise
// cost row at that neighbour's frozen prior label — the MRF conditioned on
// the unchanged boundary.
func (k *Kernel) aggregate(node int, dst []float64) {
	copy(dst, k.g.UnaryView(node))
	kn := k.counts[node]
	for _, he := range k.incident(node) {
		if k.warm && !k.active[he.Other] {
			row := k.boundaryRow(he)
			for x := 0; x < kn; x++ {
				dst[x] += row[x]
			}
			continue
		}
		in := k.inMessage(he)
		for x := 0; x < kn; x++ {
			dst[x] += in[x]
		}
	}
}

// boundaryRow returns the pairwise cost toward the half edge's node for the
// opposite endpoint frozen at its prior label.
func (k *Kernel) boundaryRow(he solve.HalfEdge) []float64 {
	fixed := k.prior[he.Other]
	if he.IsU {
		// cost[x][fixed] over this node's labels x = row of the transpose.
		return k.g.EdgeMatT(int(he.Edge)).Row(fixed)
	}
	return k.g.EdgeMat(int(he.Edge)).Row(fixed)
}

// updateMessage recomputes the message from `node` to `he.Other`:
//
//	m(x_other) = min_x [ γ_node·a(x) − m_{other→node}(x) + ψ(x, x_other) ]
//
// normalised to have minimum zero.  Costs are read through the edge matrix
// oriented so the inner loop walks a contiguous row.
func (k *Kernel) updateMessage(node int, he solve.HalfEdge, agg []float64) {
	gamma := k.gamma[node]
	in := k.inMessage(he)
	out := k.outMessage(he)
	var mat *mrf.Matrix
	if he.IsU {
		mat = k.g.EdgeMat(int(he.Edge)) // rows indexed by node's labels
	} else {
		mat = k.g.EdgeMatT(int(he.Edge))
	}
	kn := k.counts[node]
	kOther := len(out)
	if kOther == 4 {
		// Small-K fast path for the products_per_service default: the four
		// running minima live in registers across the whole label scan and the
		// explicit reslice eliminates the row bounds checks, instead of a
		// read-modify-write of out[xo] per (x, xo) pair.  Normalisation is
		// fused into the final store.
		o0, o1, o2, o3 := math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
		for x := 0; x < kn; x++ {
			base := gamma*agg[x] - in[x]
			row := mat.Row(x)[:4:4]
			if v := base + row[0]; v < o0 {
				o0 = v
			}
			if v := base + row[1]; v < o1 {
				o1 = v
			}
			if v := base + row[2]; v < o2 {
				o2 = v
			}
			if v := base + row[3]; v < o3 {
				o3 = v
			}
		}
		m := min(min(o0, o1), min(o2, o3))
		out[0], out[1], out[2], out[3] = o0-m, o1-m, o2-m, o3-m
		return
	}
	for xo := 0; xo < kOther; xo++ {
		out[xo] = math.Inf(1)
	}
	for x := 0; x < kn; x++ {
		base := gamma*agg[x] - in[x]
		row := mat.Row(x)
		for xo := 0; xo < kOther; xo++ {
			if v := base + row[xo]; v < out[xo] {
				out[xo] = v
			}
		}
	}
	// Normalise to keep message magnitudes bounded.
	m := out[0]
	for _, v := range out[1:] {
		if v < m {
			m = v
		}
	}
	for i := range out {
		out[i] -= m
	}
}

func (k *Kernel) pass(forward bool) {
	agg := k.aggBuf
	for idx := 0; idx < k.n; idx++ {
		node := idx
		if !forward {
			node = k.n - 1 - idx
		}
		if k.warm && !k.active[node] {
			continue
		}
		k.aggregate(node, agg)
		for _, he := range k.incident(node) {
			if k.warm && !k.active[he.Other] {
				continue // frozen boundary: it reads conditioning rows, not messages
			}
			if (forward && int(he.Other) > node) || (!forward && int(he.Other) < node) {
				k.updateMessage(node, he, agg)
			}
		}
	}
}

// decode extracts a primal labeling: nodes are visited in order and each
// picks the label minimising its unary cost plus the pairwise cost toward
// already-fixed lower neighbours plus the incoming messages from
// higher-indexed neighbours.  In warm mode inactive nodes keep their prior
// label and active nodes condition on the frozen boundary.
func (k *Kernel) decode() []int {
	k.decoded = slices.Grow(k.decoded[:0], k.n)[:k.n]
	labels := k.decoded
	if k.warm {
		copy(labels, k.prior)
	}
	for node := 0; node < k.n; node++ {
		if k.warm && !k.active[node] {
			continue
		}
		kn := k.counts[node]
		cost := k.aggBuf[:kn]
		copy(cost, k.g.UnaryView(node))
		for _, he := range k.incident(node) {
			if int(he.Other) < node || (k.warm && !k.active[he.Other]) {
				// Lower neighbours are already decoded this pass; inactive
				// neighbours are frozen at their prior label (labels[] holds
				// both).  Orient the matrix so the fixed label picks a
				// contiguous row.
				fixed := labels[he.Other]
				var row []float64
				if he.IsU {
					row = k.g.EdgeMatT(int(he.Edge)).Row(fixed)
				} else {
					row = k.g.EdgeMat(int(he.Edge)).Row(fixed)
				}
				for x := 0; x < kn; x++ {
					cost[x] += row[x]
				}
			} else {
				in := k.inMessage(he)
				for x := 0; x < kn; x++ {
					cost[x] += in[x]
				}
			}
		}
		best, bestV := 0, math.Inf(1)
		for x := 0; x < kn; x++ {
			if cost[x] < bestV {
				best, bestV = x, cost[x]
			}
		}
		labels[node] = best
	}
	return labels
}

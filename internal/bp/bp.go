// Package bp implements loopy min-sum belief propagation, the classic
// alternative the paper compares TRW-S against conceptually (Section V-C):
// BP applies to the same class of energies but is not guaranteed to converge
// on loopy graphs.  It serves as a baseline solver for the ablation
// experiments.  Only the synchronous message-update kernel lives here; the
// best-labeling tracking, history and cancellation live in the shared solve
// driver.
package bp

import (
	"fmt"
	"math"

	"netdiversity/internal/mrf"
	"netdiversity/internal/solve"
)

func init() {
	solve.Register("bp", func() solve.Kernel { return &Kernel{} })
}

const (
	// damping mixes each new message with the previous round's one.
	damping = 0.5
	// tolerance is the message fixed point: a round whose largest message
	// change is below it ends the solve as converged.
	tolerance = 1e-4
)

// Kernel is the synchronous loopy-BP kernel.
type Kernel struct {
	g    *mrf.Graph
	opts solve.Options

	n      int
	counts []int
	inc    solve.Incidence
	// Double-buffered flat message storage indexed like trws: slot msgU[e]
	// holds the message into the U endpoint, msgV[e] into the V endpoint.
	msg  []float64
	next []float64
	msgU []int
	msgV []int

	aggBuf []float64
	iter   int

	// Warm-start state (see WarmStart): message rounds run only over the
	// active region, conditioned on the prior labels of the inactive
	// boundary; the active set grows where the decode diverges from the
	// prior.
	warm   bool
	prior  []int
	active []bool
}

// Defaults disables the driver's energy-patience rule: BP's stopping
// criterion is its own message fixed point, as in the seed implementation.
func (k *Kernel) Defaults(opts solve.Options) solve.Options {
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 100
	}
	opts.Patience = opts.MaxIterations
	return opts
}

// Init builds the flat workspace.
func (k *Kernel) Init(g *mrf.Graph, opts solve.Options) error {
	k.g = g
	k.opts = opts
	k.n = g.NumNodes()
	k.iter = 0
	k.counts = make([]int, k.n)
	for i := 0; i < k.n; i++ {
		k.counts[i] = g.NumLabels(i)
	}

	var total int
	k.msgU, k.msgV, total = solve.MessageOffsets(g, k.msgU, k.msgV)
	k.msg = make([]float64, total)
	k.next = make([]float64, total)
	k.inc.Build(g)
	k.aggBuf = make([]float64, g.MaxLabels())
	k.warm = false
	k.prior = nil
	k.active = nil
	return nil
}

// WarmStart switches the kernel to incremental mode (solve.WarmKernel):
// message rounds visit only active nodes, inactive neighbours contribute
// their pairwise cost row at the frozen prior label instead of a message,
// and decoded labelings keep the prior label outside the active region.
func (k *Kernel) WarmStart(labels []int, dirty []bool) error {
	if len(labels) != k.n || len(dirty) != k.n {
		return fmt.Errorf("bp: warm start needs %d labels and dirty flags", k.n)
	}
	k.prior = append([]int(nil), labels...)
	k.active = append([]bool(nil), dirty...)
	k.warm = true
	return nil
}

// boundaryRow returns the pairwise cost toward the half edge's node for the
// opposite endpoint frozen at its prior label.
func (k *Kernel) boundaryRow(he solve.HalfEdge) []float64 {
	fixed := k.prior[he.Other]
	if he.IsU {
		return k.g.EdgeMatT(int(he.Edge)).Row(fixed)
	}
	return k.g.EdgeMat(int(he.Edge)).Row(fixed)
}

func (k *Kernel) incident(node int) []solve.HalfEdge {
	return k.inc.Of(node)
}

func (k *Kernel) slot(buf []float64, e int, intoU bool) []float64 {
	u, v := k.g.EdgeEndpoints(e)
	if intoU {
		return buf[k.msgU[e] : k.msgU[e]+k.counts[u]]
	}
	return buf[k.msgV[e] : k.msgV[e]+k.counts[v]]
}

// inMessage returns the previous-round message arriving at the half edge's
// node.
func (k *Kernel) inMessage(he solve.HalfEdge) []float64 {
	return k.slot(k.msg, int(he.Edge), he.IsU)
}

// Step performs one synchronous round: every directed message is recomputed
// from the previous round's messages, then a labeling is decoded from the
// beliefs.
func (k *Kernel) Step() solve.Step {
	maxDelta := 0.0
	agg := k.aggBuf
	for node := 0; node < k.n; node++ {
		if k.warm && !k.active[node] {
			continue
		}
		kn := k.counts[node]
		copy(agg, k.g.UnaryView(node))
		for _, he := range k.incident(node) {
			if k.warm && !k.active[he.Other] {
				row := k.boundaryRow(he)
				for x := 0; x < kn; x++ {
					agg[x] += row[x]
				}
				continue
			}
			in := k.inMessage(he)
			for x := 0; x < kn; x++ {
				agg[x] += in[x]
			}
		}
		for _, he := range k.incident(node) {
			if k.warm && !k.active[he.Other] {
				continue // frozen boundary: no messages flow toward it
			}
			in := k.inMessage(he)
			out := k.slot(k.next, int(he.Edge), !he.IsU)
			var mat *mrf.Matrix
			if he.IsU {
				mat = k.g.EdgeMat(int(he.Edge))
			} else {
				mat = k.g.EdgeMatT(int(he.Edge))
			}
			kOther := len(out)
			if kOther == 4 {
				// Small-K fast path (see the twin in trws.updateMessage): the
				// four running minima stay in registers and the reslice
				// eliminates the row bounds checks.
				o0, o1, o2, o3 := math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
				for x := 0; x < kn; x++ {
					base := agg[x] - in[x]
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
				out[0], out[1], out[2], out[3] = o0, o1, o2, o3
			} else {
				for xo := 0; xo < kOther; xo++ {
					out[xo] = math.Inf(1)
				}
				for x := 0; x < kn; x++ {
					base := agg[x] - in[x]
					row := mat.Row(x)[:kOther:kOther]
					for xo := 0; xo < kOther; xo++ {
						if v := base + row[xo]; v < out[xo] {
							out[xo] = v
						}
					}
				}
			}
			// Normalise and damp against the previous round's message.
			m := out[0]
			for _, v := range out[1:] {
				if v < m {
					m = v
				}
			}
			old := k.slot(k.msg, int(he.Edge), !he.IsU)
			for i := range out {
				out[i] -= m
				out[i] = (1-damping)*out[i] + damping*old[i]
				if d := math.Abs(out[i] - old[i]); d > maxDelta {
					maxDelta = d
				}
			}
		}
	}
	k.msg, k.next = k.next, k.msg
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
		Labels:     labels,
		FixedPoint: maxDelta < tolerance,
		Exhausted:  k.iter >= k.opts.MaxIterations,
	}
}

// decode picks the label minimising each node's belief.  In warm mode
// inactive nodes keep their prior label and active beliefs condition on the
// frozen boundary.
func (k *Kernel) decode() []int {
	labels := make([]int, k.n)
	if k.warm {
		copy(labels, k.prior)
	}
	belief := k.aggBuf
	for node := 0; node < k.n; node++ {
		if k.warm && !k.active[node] {
			continue
		}
		kn := k.counts[node]
		copy(belief, k.g.UnaryView(node))
		for _, he := range k.incident(node) {
			if k.warm && !k.active[he.Other] {
				row := k.boundaryRow(he)
				for x := 0; x < kn; x++ {
					belief[x] += row[x]
				}
				continue
			}
			in := k.inMessage(he)
			for x := 0; x < kn; x++ {
				belief[x] += in[x]
			}
		}
		best, bestV := 0, math.Inf(1)
		for x := 0; x < kn; x++ {
			if belief[x] < bestV {
				best, bestV = x, belief[x]
			}
		}
		labels[node] = best
	}
	return labels
}

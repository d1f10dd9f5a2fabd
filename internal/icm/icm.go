// Package icm implements Iterated Conditional Modes and a simulated-annealing
// variant — simple local-search baselines for the MRF minimisation problem.
// ICM converges to a local optimum extremely quickly but has no optimality
// guarantee; it is used in the solver ablation (README "Experiments").  Only
// the sweep kernel lives here; restarts are phases of the kernel and the
// best-labeling tracking, history and cancellation live in the shared solve
// driver.
package icm

import (
	"context"
	"fmt"
	"math"
	"slices"

	"netdiversity/internal/fastrand"
	"netdiversity/internal/mrf"
	"netdiversity/internal/solve"
)

func init() {
	solve.Register("icm", func() solve.Kernel { return &Kernel{} })
	solve.Register("anneal", func() solve.Kernel { return &Kernel{anneal: true} })
}

// The "anneal" entry's schedule: annealRestarts random restarts, each
// starting at temperature initialTemperature and multiplying it by cooling
// after every sweep.  "icm" runs one plain descent.
const (
	annealRestarts     = 4
	initialTemperature = 1.0
	cooling            = 0.92
)

// Polish runs strict ICM descent starting from the given labeling and returns
// the (weakly) improved labeling.  It is used to locally refine the output of
// the message-passing solvers ("TRW-S + local polish"), and never increases
// the energy.
func Polish(g *mrf.Graph, labels []int, maxSweeps int) (mrf.Solution, error) {
	if g == nil {
		return mrf.Solution{}, solve.ErrNilGraph
	}
	if len(labels) != g.NumNodes() {
		return mrf.Solution{}, fmt.Errorf("icm: labeling has %d entries, want %d", len(labels), g.NumNodes())
	}
	if maxSweeps <= 0 {
		maxSweeps = 10
	}
	startEnergy, err := g.Energy(labels)
	if err != nil {
		return mrf.Solution{}, fmt.Errorf("icm: polish start labeling: %w", err)
	}
	start := append([]int(nil), labels...)
	sol, err := solve.Run(context.Background(), g, solve.Options{
		MaxIterations: maxSweeps,
		InitialLabels: start,
	}, &Kernel{})
	if err != nil {
		return mrf.Solution{}, err
	}
	// Descent from the provided labeling can only improve (or keep) the
	// energy relative to that labeling.
	if sol.Energy > startEnergy {
		sol.Labels = append([]int(nil), labels...)
		sol.Energy = startEnergy
	}
	return sol, nil
}

// Kernel is the ICM / simulated-annealing sweep kernel.  Restarts are
// internal phases: when a restart reaches a local optimum (or its sweep
// budget), the kernel re-initialises randomly and reports a phase boundary
// to the driver.
type Kernel struct {
	// anneal makes the kernel the "anneal" registry entry.
	anneal bool

	g    *mrf.Graph
	opts solve.Options
	rng  fastrand.RNG

	n       int
	counts  []int
	inc     solve.Incidence
	labels  []int
	costBuf []float64

	// Warm-start state (see WarmStart): when warm is set, sweeps visit only
	// active nodes, nodes deactivate once locally optimal and reactivate when
	// a neighbour changes label — classic worklist Gauss-Seidel, O(active)
	// per sweep instead of O(n).
	warm   bool
	active []bool

	// restarts and annealing are this solve's schedule: the entry's, or one
	// plain descent after WarmStart.
	restarts       int
	annealing      bool
	restart        int
	sweepInRestart int
	temp           float64
	// anyConverged remembers whether any restart reached a local optimum,
	// matching the seed's Converged semantics for multi-restart runs.
	anyConverged bool
}

// Defaults applies the local-search defaults: 50 sweeps per restart, driver
// patience disabled (a restart's plateau must not cut the next restart
// short; termination is the kernel's own local-optimum / budget rule).
func (k *Kernel) Defaults(opts solve.Options) solve.Options {
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 50
	}
	opts.Patience = opts.MaxIterations * k.entryRestarts()
	return opts
}

// entryRestarts is the registry entry's restart count.
func (k *Kernel) entryRestarts() int {
	if k.anneal {
		return annealRestarts
	}
	return 1
}

// Init builds the incidence workspace and the first restart's labeling.  It
// may be called again on the same kernel value (see solve.Kernel): all state
// is reset and the previous solve's buffers are refilled in place.
func (k *Kernel) Init(g *mrf.Graph, opts solve.Options) error {
	k.g = g
	k.opts = opts
	k.rng = fastrand.New(uint64(opts.Seed))
	k.n = g.NumNodes()
	k.counts = slices.Grow(k.counts[:0], k.n)[:k.n]
	for i := 0; i < k.n; i++ {
		k.counts[i] = g.NumLabels(i)
	}
	k.inc.Build(g)
	k.costBuf = slices.Grow(k.costBuf[:0], g.MaxLabels())[:g.MaxLabels()]

	if len(opts.InitialLabels) == k.n {
		k.labels = append(k.labels[:0], opts.InitialLabels...)
	} else {
		k.labels = g.GreedyLabeling()
	}
	k.warm = false
	k.restarts = k.entryRestarts()
	k.annealing = k.anneal
	k.restart = 0
	k.sweepInRestart = 0
	k.temp = initialTemperature
	k.anyConverged = false
	return nil
}

// WarmStart switches the kernel to incremental mode (solve.WarmKernel): the
// descent starts from the prior labeling, only the dirty nodes are visited
// initially and the active set grows along the change frontier.  Random
// restarts and the annealing acceptance rule are disabled — both would
// re-randomise (or keep hot) the frozen regions and defeat the purpose of an
// incremental re-solve.
func (k *Kernel) WarmStart(labels []int, dirty []bool) error {
	if len(labels) != k.n || len(dirty) != k.n {
		return fmt.Errorf("icm: warm start needs %d labels and dirty flags", k.n)
	}
	copy(k.labels, labels)
	k.active = append(k.active[:0], dirty...)
	k.warm = true
	k.restarts = 1
	k.annealing = false
	return nil
}

func (k *Kernel) incident(node int) []solve.HalfEdge {
	return k.inc.Of(node)
}

// localCosts fills dst[x] with the energy contribution of assigning label x
// to the node given the current labels of its neighbours.
func (k *Kernel) localCosts(node int, dst []float64) {
	copy(dst, k.g.UnaryView(node))
	kn := k.counts[node]
	for _, he := range k.incident(node) {
		fixed := k.labels[he.Other]
		var row []float64
		if he.IsU {
			// cost[x][fixed] over x = column of the matrix = row of the
			// transpose: contiguous.
			row = k.g.EdgeMatT(int(he.Edge)).Row(fixed)
		} else {
			row = k.g.EdgeMat(int(he.Edge)).Row(fixed)
		}
		for x := 0; x < kn; x++ {
			dst[x] += row[x]
		}
	}
}

// sweep performs one Gauss-Seidel pass over the nodes and reports whether
// any label changed.  In warm mode only active nodes are visited: a node
// deactivates once locally optimal and neighbours of a changed node are
// (re)activated.
func (k *Kernel) sweep() bool {
	changed := false
	for node := 0; node < k.n; node++ {
		if k.warm && !k.active[node] {
			continue
		}
		kn := k.counts[node]
		cost := k.costBuf[:kn]
		k.localCosts(node, cost)
		cur := k.labels[node]
		bestLabel, bestCost := cur, cost[cur]
		for x := 0; x < kn; x++ {
			if cost[x] < bestCost {
				bestLabel, bestCost = x, cost[x]
			}
		}
		switch {
		case bestLabel != cur:
			k.labels[node] = bestLabel
			changed = true
			if k.warm {
				for _, he := range k.incident(node) {
					k.active[he.Other] = true
				}
			}
		case k.warm:
			k.active[node] = false
		case k.annealing && k.temp > 1e-9:
			// Propose a random uphill move with Metropolis acceptance.
			cand := k.rng.Intn(kn)
			if cand != cur {
				delta := cost[cand] - cost[cur]
				if delta < 0 || k.rng.Float64() < math.Exp(-delta/k.temp) {
					k.labels[node] = cand
					changed = true
				}
			}
		}
	}
	return changed
}

// nextRestart re-initialises the labeling randomly for the following phase.
func (k *Kernel) nextRestart() {
	k.restart++
	k.sweepInRestart = 0
	k.temp = initialTemperature
	for i := range k.labels {
		k.labels[i] = k.rng.Intn(k.counts[i])
	}
}

// Step performs one sweep and handles restart transitions.  It returns the
// kernel's labeling buffer directly: the driver scores and copies it before
// the next Step mutates it.
func (k *Kernel) Step() solve.Step {
	changed := k.sweep()
	k.sweepInRestart++
	k.temp *= cooling
	lastRestart := k.restart+1 >= k.restarts
	switch {
	case !changed && !k.annealing:
		// Local optimum reached for this restart.
		k.anyConverged = true
		if lastRestart {
			return solve.Step{Labels: k.labels, FixedPoint: true}
		}
		// Snapshot before nextRestart randomises the buffer.
		labels := append([]int(nil), k.labels...)
		k.nextRestart()
		return solve.Step{Labels: labels, NewPhase: true}
	case k.sweepInRestart >= k.opts.MaxIterations:
		if lastRestart {
			// Report convergence if any earlier restart reached a local
			// optimum, as the seed implementation did.
			return solve.Step{Labels: k.labels, FixedPoint: k.anyConverged, Exhausted: true}
		}
		labels := append([]int(nil), k.labels...)
		k.nextRestart()
		return solve.Step{Labels: labels, NewPhase: true}
	default:
		return solve.Step{Labels: k.labels}
	}
}

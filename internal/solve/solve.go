// Package solve defines the unified solver layer for the MRF minimisation
// problem: a Kernel interface that each algorithm (TRW-S, loopy BP, ICM,
// simulated annealing) implements with just its message/update rule and the
// constants of its own schedule, a shared driver that owns everything the
// seed solvers used to duplicate — best-labeling tracking, patience
// convergence, energy history and context cancellation — and a registry
// mapping solver names to kernel factories so that orchestration layers
// (core.Optimizer, the cmd tools) can run any solver uniformly.
package solve

import (
	"context"
	"errors"
	"fmt"

	"netdiversity/internal/mrf"
)

// ErrNilGraph is returned when Solve/Run is called with a nil graph.  Solver
// packages alias this error so errors.Is works across the wrappers.
var ErrNilGraph = errors.New("solve: nil graph")

// Tolerance is the minimum energy improvement that counts as progress for
// the driver's patience rule; multilevel's refinement frontier uses it as the
// slack of a local best response.
const Tolerance = 1e-6

// Options is the unified solver configuration.  Individual kernels consume
// the subset that applies to them and may override defaults through the
// Defaults hook.
type Options struct {
	// MaxIterations bounds the number of kernel steps per phase (sweeps for
	// the local-search solvers, full passes for the message-passing ones).
	// Default 100.
	MaxIterations int
	// Patience is the number of non-improving iterations tolerated before
	// the driver declares convergence.  Default 5.  Kernels that manage
	// their own stopping rule (BP message deltas, ICM local optima) disable
	// it by raising it to their whole step budget, which also lifts the
	// driver's hard step cap to that budget.
	Patience int
	// Seed drives randomised kernels (restarts, annealing).
	Seed int64
	// InitialLabels optionally warm-starts the solver: the driver seeds its
	// best labeling with it and local-search kernels descend from it.
	InitialLabels []int
	// Checkpoint, when non-nil, is called by the driver between kernel steps
	// (after the context check).  It turns one long solve into a sequence of
	// schedulable units: the serving plane's solve scheduler uses it to yield
	// the worker slot between iterations when higher-priority work is queued.
	// A non-nil error aborts the solve like a cancelled context — the driver
	// returns the best solution found so far together with the error.
	Checkpoint func(ctx context.Context) error
	// DirtyMask marks the nodes whose neighbourhood changed since
	// InitialLabels was a (near-)optimal labeling.  When set alongside
	// InitialLabels and the kernel implements WarmKernel, the driver hands
	// both to the kernel after Init: the kernel then schedules dirty nodes
	// first and keeps untouched regions frozen at the prior labeling, so a
	// re-solve after a small delta converges in O(dirty) work per sweep
	// instead of O(nodes).  Kernels without warm support simply run a full
	// warm-started solve.  nil means a cold/full solve.
	DirtyMask []bool
}

// WithDefaults fills the zero values shared by every kernel.
func (o Options) WithDefaults() Options {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 100
	}
	if o.Patience <= 0 {
		o.Patience = 5
	}
	return o
}

// Step is what a kernel reports back to the driver after one iteration.
type Step struct {
	// Labels is the candidate labeling decoded this step; the driver scores
	// it and keeps the best seen.  A nil Labels skips scoring.
	Labels []int
	// FixedPoint signals the kernel's own convergence criterion (message
	// deltas below the kernel's tolerance, a sweep with no changes on the
	// last restart).
	// The driver stops and marks the solution converged.
	FixedPoint bool
	// NewPhase signals a phase boundary (e.g. a fresh random restart); the
	// driver resets its patience counter so a phase is not cut short by the
	// previous phase's plateau.
	NewPhase bool
	// Exhausted signals that the kernel has no more work (iteration budget
	// spent); the driver stops without marking convergence.
	Exhausted bool
}

// Kernel is the pure algorithmic core of one MRF solver.  Init is called
// once per solve, single-threaded, and must touch any lazily-built graph
// caches it will read during Step (incident lists, transposed matrices) so
// that Step only reads the graph.
//
// Init is re-callable: a kernel value may be handed to Run again — for the
// same graph after it was patched, for a graph of another size, after a solve
// that was cancelled mid-way — and must then behave exactly like a fresh
// kernel.  Init resets all solver state; what it may keep is capacity,
// refilling the previous solve's arenas in place.  That lets a long-lived
// caller (core's delta path) retain its kernels and allocate nothing
// O(edges) per warm re-solve.
type Kernel interface {
	// Init validates kernel-specific options and prepares the workspace.
	Init(g *mrf.Graph, opts Options) error
	// Step advances the algorithm by one iteration.
	Step() Step
}

// OptionDefaulter lets a kernel adjust the unified defaults before the
// driver applies them (e.g. BP disables energy patience because its stopping
// rule is the message fixed point; ICM bounds sweeps per restart and raises
// patience to its restarts' whole budget).
type OptionDefaulter interface {
	Defaults(opts Options) Options
}

// WarmKernel is the optional capability a kernel implements to support
// incremental re-solves: WarmStart is called once after Init with a prior
// labeling and the dirty mask (true = this node's neighbourhood changed).
// The kernel must then treat unmarked nodes as frozen at the prior labeling
// until one of their neighbours changes label (the dirty frontier may grow),
// and its decoded labelings must keep the prior label for every node it has
// not reconsidered.
type WarmKernel interface {
	Kernel
	WarmStart(labels []int, dirty []bool) error
}

// Run drives a kernel to completion: it owns validation, warm starts,
// best-labeling tracking, the patience convergence rule, the
// energy history and context cancellation.  On cancellation, or when the
// kernel reports an internal failure through an optional Err() error method,
// it returns the best solution found so far together with the error.
func Run(ctx context.Context, g *mrf.Graph, opts Options, k Kernel) (mrf.Solution, error) {
	if g == nil {
		return mrf.Solution{}, ErrNilGraph
	}
	if err := g.Validate(); err != nil {
		return mrf.Solution{}, err
	}
	if d, ok := k.(OptionDefaulter); ok {
		opts = d.Defaults(opts)
	}
	opts = opts.WithDefaults()
	if err := k.Init(g, opts); err != nil {
		return mrf.Solution{}, err
	}
	warmed := false
	if opts.DirtyMask != nil {
		if len(opts.DirtyMask) != g.NumNodes() {
			return mrf.Solution{}, fmt.Errorf("solve: dirty mask has %d entries, want %d", len(opts.DirtyMask), g.NumNodes())
		}
		if len(opts.InitialLabels) != g.NumNodes() {
			return mrf.Solution{}, fmt.Errorf("solve: dirty mask requires initial labels for all %d nodes", g.NumNodes())
		}
		if wk, ok := k.(WarmKernel); ok {
			if err := wk.WarmStart(opts.InitialLabels, opts.DirtyMask); err != nil {
				return mrf.Solution{}, err
			}
			warmed = true
		}
	}

	var best []int
	if warmed {
		// Incremental mode: the prior labeling is the only admissible seed —
		// falling back to the greedy-unary baseline could return a labeling
		// that moves frozen (clean) regions, breaking the WarmKernel
		// contract that untouched nodes keep their prior label.
		best = append([]int(nil), opts.InitialLabels...)
	} else {
		best = g.GreedyLabeling()
	}
	bestEnergy := g.MustEnergy(best)
	// Patience tracks the kernel's progress against the starting baseline,
	// not against a stronger warm start: a strong warm start must not starve
	// a message-passing kernel of its first Patience iterations while its
	// decoded energy is still catching up from above.
	kernelBest := bestEnergy
	if !warmed && len(opts.InitialLabels) == g.NumNodes() {
		if e, err := g.Energy(opts.InitialLabels); err == nil && e < bestEnergy {
			copy(best, opts.InitialLabels)
			bestEnergy = e
		}
	}

	history := make([]float64, 0, opts.MaxIterations)
	noImprove := 0
	iterations := 0
	converged := false
	// Hard cap: kernels signal Exhausted themselves; this only guards
	// against a kernel that never does.  A multi-phase kernel declares its
	// whole budget through Patience (see OptionDefaulter).
	maxSteps := max(opts.MaxIterations, opts.Patience)

	for iterations < maxSteps {
		if err := ctx.Err(); err != nil {
			return pack(g, best, bestEnergy, history, iterations, false), err
		}
		if opts.Checkpoint != nil {
			if err := opts.Checkpoint(ctx); err != nil {
				return pack(g, best, bestEnergy, history, iterations, false), err
			}
		}
		st := k.Step()
		iterations++
		if st.Labels != nil {
			e := g.MustEnergy(st.Labels)
			if e < kernelBest-Tolerance {
				kernelBest = e
				noImprove = 0
			} else {
				noImprove++
			}
			if e < bestEnergy {
				bestEnergy = e
				copy(best, st.Labels)
			}
		}
		history = append(history, bestEnergy)
		if st.NewPhase {
			noImprove = 0
		}
		if st.FixedPoint {
			converged = true
			break
		}
		if st.Exhausted {
			break
		}
		if noImprove >= opts.Patience {
			converged = true
			break
		}
	}
	// A kernel that aborted internally (a composite kernel whose inner solve
	// failed) reports Exhausted and remembers why; without this check its
	// caller would be served the baseline labeling as if it were a solution.
	if f, ok := k.(interface{ Err() error }); ok {
		if err := f.Err(); err != nil {
			return pack(g, best, bestEnergy, history, iterations, false), err
		}
	}
	return pack(g, best, bestEnergy, history, iterations, converged), nil
}

func pack(g *mrf.Graph, labels []int, energy float64, history []float64, iters int, converged bool) mrf.Solution {
	return mrf.Solution{
		Labels:        append([]int(nil), labels...),
		Energy:        energy,
		LowerBound:    g.TrivialLowerBound(),
		Iterations:    iters,
		Converged:     converged,
		EnergyHistory: append([]float64(nil), history...),
	}
}

// Solve instantiates the named kernel from the registry and runs it.  Errors
// pass through unwrapped: kernels already prefix their own option errors
// with the solver name, and graph/context errors carry their origin.
func Solve(ctx context.Context, name string, g *mrf.Graph, opts Options) (mrf.Solution, error) {
	k, err := New(name)
	if err != nil {
		return mrf.Solution{}, err
	}
	return Run(ctx, g, opts, k)
}

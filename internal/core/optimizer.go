package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"netdiversity/internal/baseline"
	"netdiversity/internal/icm"
	"netdiversity/internal/mrf"
	"netdiversity/internal/netmodel"
	"netdiversity/internal/solve"
	"netdiversity/internal/vulnsim"

	// Blank imports register the solver kernels with the solve registry.
	_ "netdiversity/internal/bp"
	_ "netdiversity/internal/trws"
)

// Solver is the name of a kernel registered with the solve registry, so a
// new kernel package is selectable without touching core.  The empty name
// selects SolverTRWS.
type Solver string

// The kernels linked into every build.
const (
	// SolverTRWS is the sequential tree-reweighted message passing solver
	// used by the paper (default).
	SolverTRWS Solver = "trws"
	// SolverBP is loopy min-sum belief propagation.
	SolverBP Solver = "bp"
	// SolverICM is iterated conditional modes local search.
	SolverICM Solver = "icm"
	// SolverAnneal is ICM with a simulated-annealing acceptance rule.
	SolverAnneal Solver = "anneal"
)

// ParseSolver validates a solver name against the solve registry, so only
// solvers whose kernels are actually linked in parse successfully.  The
// empty name selects SolverTRWS.
func ParseSolver(name string) (Solver, error) {
	if name == "" {
		return SolverTRWS, nil
	}
	if !solve.Registered(name) {
		return "", fmt.Errorf("core: unknown solver %q (registered: %v)", name, solve.Names())
	}
	return Solver(name), nil
}

// SolverNames lists the solver names registered with the unified solve
// registry.
func SolverNames() []string { return solve.Names() }

// Options configures the optimiser.
type Options struct {
	// Solver selects the minimisation algorithm; default SolverTRWS.
	Solver Solver
	// MaxIterations bounds the solver iterations.  Default 100 (50 for the
	// local-search solvers).
	MaxIterations int
	// Workers is how many independent subproblems run at once: the blocks
	// OptimizeParallel solves concurrently.  A single solve is always
	// serial.  Default 1.
	Workers int
	// Seed drives the randomised solvers (ICM restarts, annealing).
	Seed int64
	// DisablePolish turns off the local ICM refinement applied to the
	// solver's labeling (useful for solver ablations that want the raw
	// message-passing result).
	DisablePolish bool
	// DisableWarmStart turns off the greedy-colouring warm start normally
	// fed to every solver, so benchmark scenarios can measure a solver's
	// cold-start behaviour.
	DisableWarmStart bool
	// Checkpoint, when set, is handed to every solve this optimiser runs
	// (cold solves, re-optimisations, polish passes).  The solve driver
	// calls it between steps; returning an error aborts the solve.  The
	// serving plane uses it to slice long solves into schedulable units.
	Checkpoint func(context.Context) error
}

func (o Options) withDefaults() Options {
	if o.Solver == "" {
		o.Solver = SolverTRWS
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 100
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// Result is the outcome of an optimisation run.
type Result struct {
	// Assignment is the decoded optimal assignment α̂ (or α̂_C).
	Assignment *netmodel.Assignment
	// Energy is the MRF energy of the assignment (Eq. 1).
	Energy float64
	// LowerBound is the solver's lower bound on the optimal energy.
	LowerBound float64
	// Iterations and Converged report solver behaviour.
	Iterations int
	Converged  bool
	// Runtime is the wall-clock time spent building and solving the MRF.
	Runtime time.Duration
	// Nodes and Edges describe the size of the MRF that was solved.
	Nodes, Edges int
	// EnergyHistory records the solver's best energy after every iteration
	// (before the optional local polish), for convergence reporting.
	EnergyHistory []float64
	// ConstraintViolations lists any constraints the decoded assignment
	// still violates (should be empty unless the constraint set is
	// infeasible).
	ConstraintViolations []string
}

// Optimizer computes optimal diversification strategies for one network.
// It is a long-lived engine: the built MRF stays alive across solves,
// network changes are absorbed through ApplyDelta (which patches the MRF in
// place) and Reoptimize warm-starts from the previous solution, so a churn
// step costs O(changed region) instead of a cold build + solve.  Callers
// must route all post-construction network mutations through ApplyDelta;
// mutating the network directly leaves the cached MRF stale.
type Optimizer struct {
	net  *netmodel.Network
	sim  *vulnsim.SimilarityTable
	cs   *netmodel.ConstraintSet
	opts Options
	// costModel and costWeight optionally add deployment costs to the unary
	// term (see SetCostModel).
	costModel  *CostModel
	costWeight float64

	// prob is the live MRF encoding, built lazily and patched by ApplyDelta.
	prob *problem
	// lastAssignment/lastEnergy memoise the most recent solution (sealed) as
	// the warm start for Reoptimize; setSolution is their only writer.
	lastAssignment *netmodel.Assignment
	lastEnergy     float64
	// rebuilt records that a threshold rebuild compacted the problem since
	// the last solve (reported by Reoptimize).
	rebuilt bool
	// pendingDeltas records that ApplyDelta ran since the last solve, so
	// Reoptimize refreshes the served assignment even when the dirty set is
	// empty (e.g. the removal of a host with no live neighbours).
	pendingDeltas bool
}

// ensureProblem returns the live MRF, building it from the network,
// constraints and (optional) cost model on first use or after invalidation.
func (o *Optimizer) ensureProblem() (*problem, error) {
	if o.prob != nil {
		return o.prob, nil
	}
	prob, err := buildProblem(o.net, o.sim, o.cs)
	if err != nil {
		return nil, err
	}
	if err := applyCostModel(prob, o.costModel, o.costWeight); err != nil {
		return nil, err
	}
	o.prob = prob
	return prob, nil
}

// invalidateProblem drops the cached MRF so the next solve rebuilds it.
func (o *Optimizer) invalidateProblem() { o.prob = nil }

// ErrNilInput is returned when the network or similarity table is nil.
var ErrNilInput = errors.New("core: network and similarity table must not be nil")

// NewOptimizer creates an optimiser for the network and similarity table.
func NewOptimizer(net *netmodel.Network, sim *vulnsim.SimilarityTable, opts Options) (*Optimizer, error) {
	if net == nil || sim == nil {
		return nil, ErrNilInput
	}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Optimizer{net: net, sim: sim, opts: opts.withDefaults()}, nil
}

// SetConstraints installs the constraint set C used by subsequent Optimize
// calls (nil clears it).  The cached MRF is invalidated: constraint changes
// reshape the factor set, which is a rebuild, not a patch.
func (o *Optimizer) SetConstraints(cs *netmodel.ConstraintSet) error {
	if cs != nil {
		if err := cs.Validate(o.net); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	o.cs = cs
	o.invalidateProblem()
	return nil
}

// Constraints returns the currently installed constraint set (may be nil).
func (o *Optimizer) Constraints() *netmodel.ConstraintSet { return o.cs }

// Optimize computes the (constrained) optimal assignment with a full (cold)
// solve.  For re-solving after an ApplyDelta, Reoptimize is the incremental
// fast path.
func (o *Optimizer) Optimize(ctx context.Context) (Result, error) {
	start := time.Now()
	prob, err := o.ensureProblem()
	if err != nil {
		return Result{}, err
	}
	sol, err := o.solve(ctx, prob.graph, o.warmStart(prob), nil)
	if err != nil {
		return Result{}, err
	}
	if !o.opts.DisablePolish {
		polished, perr := icm.Polish(prob.graph, sol.Labels, 10)
		if perr != nil {
			return Result{}, perr
		}
		if polished.Energy < sol.Energy {
			sol.Labels = polished.Labels
			sol.Energy = polished.Energy
		}
	}
	assignment, err := prob.decode(sol.Labels)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Assignment:    assignment,
		Energy:        sol.Energy,
		LowerBound:    sol.LowerBound,
		Iterations:    sol.Iterations,
		Converged:     sol.Converged,
		Runtime:       time.Since(start),
		Nodes:         prob.graph.NumNodes(),
		Edges:         prob.graph.NumEdges(),
		EnergyHistory: sol.EnergyHistory,
	}
	if o.cs != nil {
		res.ConstraintViolations = o.cs.Violations(assignment, o.net)
	}
	// A full solve absorbs every pending delta: memoise the solution as the
	// next Reoptimize warm start and reset the dirty bookkeeping.
	o.absorb(prob, assignment, sol.Energy, sol.Labels)
	return res, nil
}

// warmStart encodes the greedy-colouring baseline as an initial labeling so
// that every solver starts from (and can never end worse than) the strongest
// non-optimising strategy.  It returns nil when warm starts are disabled or
// the baseline is unavailable for the current constraint set.
func (o *Optimizer) warmStart(prob *problem) []int {
	if o.opts.DisableWarmStart {
		return nil
	}
	greedy, err := baseline.GreedyColoring(o.net, o.sim, o.cs)
	if err != nil {
		return nil
	}
	labels, err := prob.encode(greedy)
	if err != nil {
		return nil
	}
	return labels
}

// solve runs the configured solver through the unified solve registry.  All
// solvers share the same driver (best-labeling tracking, convergence rule,
// energy history, cancellation).  A non-nil dirty mask switches warm-capable
// kernels to the incremental dirty-frontier schedule.
func (o *Optimizer) solve(ctx context.Context, g *mrf.Graph, initial []int, dirty []bool) (mrf.Solution, error) {
	return solve.Solve(ctx, string(o.opts.Solver), g, solve.Options{
		MaxIterations: o.opts.MaxIterations,
		Seed:          o.opts.Seed,
		InitialLabels: initial,
		DirtyMask:     dirty,
		Checkpoint:    o.opts.Checkpoint,
	})
}

// Energy evaluates the optimisation objective of Eq. 1 for an arbitrary
// (complete) assignment under this optimiser's options and constraints.
// It lets baseline assignments be compared on the exact objective the
// optimiser minimises.
func (o *Optimizer) Energy(a *netmodel.Assignment) (float64, error) {
	if a == nil {
		return 0, errors.New("core: nil assignment")
	}
	prob, err := o.ensureProblem()
	if err != nil {
		return 0, err
	}
	labels, err := prob.encode(a)
	if err != nil {
		return 0, err
	}
	return prob.graph.Energy(labels)
}

// PairwiseSimilarityCost returns only the pairwise part of the objective
// (Eq. 3) for an assignment: the summed similarity over all links and shared
// services.  This is the quantity the diversification is really trying to
// drive down and is reported by the examples.
func PairwiseSimilarityCost(net *netmodel.Network, sim *vulnsim.SimilarityTable, a *netmodel.Assignment) (float64, error) {
	if net == nil || sim == nil {
		return 0, ErrNilInput
	}
	if a == nil {
		return 0, errors.New("core: nil assignment")
	}
	total := 0.0
	for _, link := range net.Links() {
		for _, s := range net.SharedServices(link.A, link.B) {
			pa, oka := a.Get(link.A, s)
			pb, okb := a.Get(link.B, s)
			if !oka || !okb {
				return 0, fmt.Errorf("core: assignment misses %s or %s for service %s", link.A, link.B, s)
			}
			total += sim.Sim(string(pa), string(pb))
		}
	}
	return total, nil
}

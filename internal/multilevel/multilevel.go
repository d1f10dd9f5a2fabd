// Package multilevel implements the coarsen→solve→project→refine scheme
// that pushes the diversification MRF past the flat solvers' ~1000-host
// range: contract the graph into a hierarchy of progressively smaller
// problems (internal/coarsen), solve the coarsest level exactly once with a
// flat kernel (default TRW-S), then walk back up the hierarchy projecting
// each coarse labeling onto the next finer level and repairing it with the
// WarmKernel dirty-mask machinery — only nodes whose projected label is not
// a local best response are re-solved, so each refinement costs O(dirty)
// instead of O(nodes).
//
// The hierarchy is a cold-solve device only.  An incremental re-solve
// (solve.Options.DirtyMask + InitialLabels, i.e. core.Reoptimize after a
// delta) already has what the hierarchy exists to produce — a good fine
// labeling — so WarmStart skips coarsening altogether and hands the fine
// graph, the prior labeling and the dirty mask to the kernel refineDown uses
// for level 0 (trws up to TRWSEdgeLimit edges, the icm worklist above it).
// Every further Step forwards to that kernel: a multilevel tenant's delta
// runs the code a flat tenant's delta runs, and costs what it dirtied.
//
// The kernel registers as "multilevel" and runs under the standard solve
// driver: the hierarchy build, the coarsest solve and each per-level
// refinement are individual driver steps, so context cancellation and the
// scheduler's Checkpoint hook interleave between phases.  Refinement solves
// inherit the Checkpoint too, which is what lets the serving plane slice a
// million-host solve into schedulable units.
package multilevel

import (
	"context"
	"fmt"
	"time"

	"netdiversity/internal/coarsen"
	"netdiversity/internal/mrf"
	"netdiversity/internal/solve"

	// The coarsest-level and refinement solves are looked up from the solve
	// registry by name; link the kernels this package defaults to.
	_ "netdiversity/internal/icm"
	_ "netdiversity/internal/trws"
)

func init() {
	solve.Register("multilevel", func() solve.Kernel { return &Kernel{} })
}

const (
	// DefaultBaseSolver solves the coarsest level.
	DefaultBaseSolver = "trws"
	// DefaultRefineIterations bounds each per-level warm repair solve.
	DefaultRefineIterations = 8
	// DefaultTRWSEdgeLimit is the largest level (in edges) refined with the
	// message-passing kernel; larger levels switch to the O(n)-memory ICM
	// worklist.  Message buffers cost 2·edges·K floats and every trws sweep
	// is O(edges·K²) regardless of the dirty fraction, so on big levels the
	// worklist repair wins by orders of magnitude.
	DefaultTRWSEdgeLimit = 1 << 18
	// DefaultMatchingLimit is the largest fine graph (in nodes) coarsened
	// with the matching hierarchy.  Random uniform topologies are
	// expander-like: halving the node count barely shrinks the edge count,
	// so a deep hierarchy costs O(edges) per level and re-refines nearly
	// the whole graph each projection.  Above this limit the kernel jumps
	// straight to DefaultAggregateTarget nodes in one deterministic hash
	// pass.
	DefaultMatchingLimit = 16384
	// DefaultAggregateTarget is the coarse size of the single-jump path.
	// Around a thousand coarse nodes the accumulated pair table saturates
	// (the coarse graph is nearly complete), so the flat base solver sees a
	// fixed-size problem no matter how large the fine graph is.
	DefaultAggregateTarget = 512
)

// Stats describes one multilevel solve for benchmark reporting.
type Stats struct {
	// CoarsenMS is the wall-clock time spent building the hierarchy.
	CoarsenMS float64
	// Levels is the hierarchy depth including the fine graph.
	Levels int
	// CoarsestNodes is the node count of the level the base solver ran on.
	CoarsestNodes int
	// RefinedNodes is the total number of dirty nodes repaired across all
	// projection steps.
	RefinedNodes int
}

// Kernel is the multilevel solver.  The zero value uses the defaults above;
// fields may be set when constructing the kernel directly (SolveWithStats).
type Kernel struct {
	// BaseSolver names the registry kernel used on the coarsest level.
	BaseSolver string
	// TRWSEdgeLimit switches refinement from trws to icm above this edge
	// count.
	TRWSEdgeLimit int
	// Stride is the node-interleave period handed to coarsen.Aggregate
	// (services per host for the diversification MRF layout); 1 groups raw
	// node indices.
	Stride int

	g      *mrf.Graph
	opts   solve.Options
	h      *coarsen.Hierarchy
	labels []int // labeling of the most recently solved/refined level
	level  int   // index of that level in h.Levels
	phase  int
	stats  Stats
	failed error
	// inner is the flat kernel warm re-solves forward to (see WarmStart) and
	// innerName its registry name; it survives Init, so a retained kernel
	// value refills its arenas instead of allocating them per delta.  warm
	// says whether the current solve is a warm one.
	inner     solve.WarmKernel
	innerName string
	warm      bool
}

const (
	phaseBuild = iota
	phaseCoarse
	phaseRefine
	phaseDone
)

// Defaults floors the iteration budget so the driver's step cap can never
// truncate the hierarchy walk: the kernel needs one step for the build, one
// for the coarsest solve and one per projection level.  A warm re-solve walks
// no hierarchy — its steps are the inner kernel's sweeps — so the caller's
// budget stands.
func (k *Kernel) Defaults(o solve.Options) solve.Options {
	if o.DirtyMask != nil {
		return o
	}
	if floor := coarsen.MaxLevels + 4; o.MaxIterations > 0 && o.MaxIterations < floor {
		o.MaxIterations = floor
	}
	return o
}

// Init implements solve.Kernel.
func (k *Kernel) Init(g *mrf.Graph, opts solve.Options) error {
	if g == nil {
		return solve.ErrNilGraph
	}
	if k.BaseSolver == "" {
		k.BaseSolver = DefaultBaseSolver
	}
	if !solve.Registered(k.BaseSolver) {
		return fmt.Errorf("multilevel: unknown base solver %q", k.BaseSolver)
	}
	if k.TRWSEdgeLimit <= 0 {
		k.TRWSEdgeLimit = DefaultTRWSEdgeLimit
	}
	if k.Stride <= 0 {
		k.Stride = 1
	}
	k.g = g
	k.opts = opts
	k.phase = phaseBuild
	k.stats = Stats{}
	k.failed = nil
	k.warm = false
	return nil
}

// WarmStart implements solve.WarmKernel by delegation: the level-0 refine
// kernel is initialised on the fine graph and warm-started with the prior
// labeling and the dirty mask, and Step forwards to it from then on.  The
// outer driver keeps owning best-tracking, patience, Checkpoint and the sweep
// count, so no hierarchy is built (Stats stays zero) and Solution.Iterations
// is the number of sweeps actually run.  The inner kernel is kept for the next
// warm re-solve (re-created only when refineSolver picks another name);
// nothing of a cold hierarchy is.
func (k *Kernel) WarmStart(labels []int, dirty []bool) error {
	if name := k.refineSolver(k.g); name != k.innerName {
		kern, err := solve.New(name)
		if err != nil {
			return err
		}
		inner, ok := kern.(solve.WarmKernel)
		if !ok {
			return fmt.Errorf("multilevel: refine solver %q cannot warm-start", name)
		}
		k.inner, k.innerName = inner, name
	}
	if err := k.inner.Init(k.g, k.opts); err != nil {
		return err
	}
	if err := k.inner.WarmStart(labels, dirty); err != nil {
		return err
	}
	k.h, k.labels = nil, nil
	k.warm = true
	return nil
}

// Step implements solve.Kernel.  Cold: one hierarchy phase per driver step;
// intermediate steps return nil Labels — scoring a partial labeling of a
// coarse level against the fine graph is meaningless — and the final step
// returns the fully refined fine labeling with FixedPoint set.  Warm: one
// sweep of the inner kernel.
func (k *Kernel) Step() solve.Step {
	if k.warm {
		return k.inner.Step()
	}
	switch k.phase {
	case phaseBuild:
		start := time.Now()
		h, err := k.buildHierarchy()
		if err != nil {
			return k.fail(err)
		}
		k.h = h
		k.stats.CoarsenMS = float64(time.Since(start).Microseconds()) / 1e3
		k.stats.Levels = h.NumLevels()
		k.stats.CoarsestNodes = h.Coarsest().NumNodes()
		k.phase = phaseCoarse
		return solve.Step{}
	case phaseCoarse:
		kern, err := solve.New(k.BaseSolver)
		if err != nil {
			return k.fail(err)
		}
		sol, err := solve.Run(context.Background(), k.h.Coarsest(), solve.Options{
			MaxIterations: k.opts.MaxIterations,
			Seed:          k.opts.Seed,
			Checkpoint:    k.opts.Checkpoint,
		}, kern)
		if err != nil {
			return k.fail(err)
		}
		k.labels = sol.Labels
		k.level = k.h.NumLevels() - 1
		if k.level == 0 {
			k.phase = phaseDone
			return solve.Step{Labels: k.labels, FixedPoint: true}
		}
		k.phase = phaseRefine
		return solve.Step{}
	case phaseRefine:
		if err := k.refineDown(); err != nil {
			return k.fail(err)
		}
		if k.level == 0 {
			k.phase = phaseDone
			return solve.Step{Labels: k.labels, FixedPoint: true}
		}
		return solve.Step{}
	default:
		return solve.Step{Exhausted: true}
	}
}

// buildHierarchy picks the coarsening strategy by fine-graph size: a
// matching hierarchy while deep refinement is affordable, one hash-bucketed
// jump to DefaultAggregateTarget nodes beyond DefaultMatchingLimit (see the
// constants for the expander-graph rationale).  The aggregate path yields a
// two-level hierarchy, so the rest of the kernel — coarse solve, projection,
// warm repair — is strategy-agnostic.
func (k *Kernel) buildHierarchy() (*coarsen.Hierarchy, error) {
	if k.g.NumNodes() <= DefaultMatchingLimit {
		return coarsen.Build(k.g, coarsen.DefaultCoarsestSize)
	}
	coarse, f2c, err := coarsen.Aggregate(k.g, k.Stride, DefaultAggregateTarget)
	if err != nil {
		return nil, err
	}
	return &coarsen.Hierarchy{
		Levels: []*mrf.Graph{k.g, coarse},
		Maps:   [][]int32{f2c},
	}, nil
}

func (k *Kernel) fail(err error) solve.Step {
	k.failed = err
	k.phase = phaseDone
	return solve.Step{Exhausted: true}
}

// refineDown projects k.labels one level down and repairs the projection
// with a WarmKernel dirty-mask solve seeded from the nodes whose projected
// label is not a local best response (the "boundary-inconsistent" set: the
// interior of a merged region is consistent by construction, inconsistency
// concentrates where merged regions meet).
func (k *Kernel) refineDown() error {
	fineLevel := k.level - 1
	fine := k.h.Levels[fineLevel]
	projected, err := k.h.Project(k.labels, k.level, fineLevel)
	if err != nil {
		return err
	}
	dirty, count := localDirty(fine, projected)
	k.level = fineLevel
	if count == 0 {
		k.labels = projected
		return nil
	}
	k.stats.RefinedNodes += count
	name := k.refineSolver(fine)
	kern, err := solve.New(name)
	if err != nil {
		return err
	}
	sol, err := solve.Run(context.Background(), fine, solve.Options{
		MaxIterations: DefaultRefineIterations,
		Seed:          k.opts.Seed,
		InitialLabels: projected,
		DirtyMask:     dirty,
		Checkpoint:    k.opts.Checkpoint,
	}, kern)
	if err != nil {
		return err
	}
	// The warm driver seeds its best labeling with the projection, so the
	// refined energy can only be <= the projected energy.
	k.labels = sol.Labels
	return nil
}

// refineSolver picks the repair kernel for a level: message passing while
// the message buffers stay affordable, the ICM worklist above that.
func (k *Kernel) refineSolver(g *mrf.Graph) string {
	if g.NumEdges() > k.TRWSEdgeLimit {
		return "icm"
	}
	return "trws"
}

// Stats returns the metrics of the last solve.
func (k *Kernel) Stats() Stats { return k.stats }

// Err returns the internal failure that aborted the last solve, if any.  The
// kernel reports an aborted solve to the driver as Exhausted; solve.Run reads
// Err after its loop and returns the failure to the caller.
func (k *Kernel) Err() error { return k.failed }

// localDirty marks every node whose label is not a local best response given
// its neighbours' labels (within solve.Tolerance), and returns the mask plus
// the count.
func localDirty(g *mrf.Graph, labels []int) ([]bool, int) {
	n := g.NumNodes()
	dirty := make([]bool, n)
	count := 0
	costs := make([]float64, g.MaxLabels())
	for i := 0; i < n; i++ {
		k := g.NumLabels(i)
		row := costs[:k]
		copy(row, g.UnaryView(i))
		for _, e := range g.IncidentEdges(i) {
			u, v := g.EdgeEndpoints(e)
			var other []float64
			if i == u {
				// rows of the transposed matrix are indexed by v's label
				other = g.EdgeMatT(e).Row(labels[v])
			} else {
				other = g.EdgeMat(e).Row(labels[u])
			}
			for x := 0; x < k; x++ {
				row[x] += other[x]
			}
		}
		min := row[0]
		for x := 1; x < k; x++ {
			if row[x] < min {
				min = row[x]
			}
		}
		if row[labels[i]] > min+solve.Tolerance {
			dirty[i] = true
			count++
		}
	}
	return dirty, count
}

// SolveWithStats runs the configured kernel and reports the hierarchy
// metrics alongside the solution.  Zero-value fields take the package
// defaults; the receiver is reusable across calls.
func (k *Kernel) SolveWithStats(ctx context.Context, g *mrf.Graph, opts solve.Options) (mrf.Solution, Stats, error) {
	sol, err := solve.Run(ctx, g, opts, k)
	return sol, k.Stats(), err
}

// SolveWithStats runs a default-configured multilevel solve.  It is the
// benchmark harness's entry point; the registry path ("multilevel" via
// solve.Solve) serves everything else.
func SolveWithStats(ctx context.Context, g *mrf.Graph, opts solve.Options) (mrf.Solution, Stats, error) {
	return (&Kernel{}).SolveWithStats(ctx, g, opts)
}

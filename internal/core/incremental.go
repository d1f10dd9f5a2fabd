package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"netdiversity/internal/netmodel"
	"netdiversity/internal/solve"
)

// Incremental re-optimisation.  ApplyDelta threads a netmodel.Delta through
// both the network and the live MRF: unary rows are patched in the flat
// buffer, new hosts append MRF nodes, removed hosts are tombstoned (zeroed
// unary, incident edges dropped from the CSR adjacency) and link changes
// add/remove interned pairwise factors.  Every touched variable lands in the
// problem's dirty set; Reoptimize then warm-starts the configured solver
// from the previous solution with that dirty frontier, so untouched regions
// are never swept.  When tombstones accumulate past a threshold the problem
// is rebuilt from the (already mutated) network — the scoped fallback that
// keeps the flat storage compact under sustained churn.

// rebuildDeadFraction is the tombstone share beyond which ApplyDelta
// compacts the problem with a full rebuild instead of patching further.
const rebuildDeadFraction = 0.25

// reoptimizeMaxIterations caps the warm solver's sweep budget and
// reoptimizePatience its non-improving plateau: a warm start inside the
// target basin converges in a handful of sweeps, so the cold-solve budget
// would mostly buy idle plateau sweeps.
const (
	reoptimizeMaxIterations = 15
	reoptimizePatience      = 3
)

// ApplyDelta applies a network delta to the optimiser's network and patches
// the live MRF in place.  On error the network may be left with a prefix of
// the delta applied and the cached MRF is invalidated (the next solve
// rebuilds it from the network's current state); the previous solution is
// never touched, so a failed or cancelled churn step keeps serving the last
// good assignment.
func (o *Optimizer) ApplyDelta(d netmodel.Delta) error {
	return o.ApplyDeltaBatch([]netmodel.Delta{d})
}

// ApplyDeltaBatch applies several deltas as one mutation batch: every op of
// every delta is threaded through the network and the live MRF exactly as
// ApplyDelta would, but the tombstone-pressure compaction check runs once at
// the end instead of once per delta — a serving layer coalescing queued
// deltas pays one bounded rebuild per batch in the worst case instead of N.
// Error semantics match ApplyDelta: on failure the network may be left with
// a prefix of the batch applied and the cached MRF is invalidated (callers
// pre-validate with netmodel.BatchChecker to rule this out); the previous
// solution is never touched.
func (o *Optimizer) ApplyDeltaBatch(deltas []netmodel.Delta) error {
	for _, d := range deltas {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	for di, d := range deltas {
		for i, op := range d.Ops {
			if err := o.applyOp(op); err != nil {
				o.invalidateProblem()
				if len(deltas) > 1 {
					return fmt.Errorf("core: delta %d op %d (%s): %w", di, i, op.Op, err)
				}
				return fmt.Errorf("core: delta op %d (%s): %w", i, op.Op, err)
			}
		}
	}
	if len(deltas) > 0 && o.prob != nil {
		o.pendingDeltas = true
		if p := o.prob; float64(p.deadCount) > rebuildDeadFraction*float64(len(p.vars)) {
			return o.rebuildCompacted()
		}
	}
	return nil
}

// rebuildCompacted rebuilds the problem from the mutated network (dropping
// tombstones and orphaned matrices) and marks every variable dirty so the
// next Reoptimize re-anchors the whole labeling from the warm start.
func (o *Optimizer) rebuildCompacted() error {
	o.invalidateProblem()
	p, err := o.ensureProblem()
	if err != nil {
		return err
	}
	for i := range p.vars {
		p.markDirty(i)
	}
	o.rebuilt = true
	return nil
}

// applyOp applies one delta op to the network and, when a problem is built,
// patches it.
func (o *Optimizer) applyOp(op netmodel.DeltaOp) error {
	switch op.Op {
	case netmodel.OpAddHost:
		if err := o.net.AddHost(op.Host.Host()); err != nil {
			return err
		}
		return o.patchAddHost(op.Host.ID)

	case netmodel.OpRemoveHost:
		if o.cs != nil && o.cs.References(op.ID) {
			return fmt.Errorf("core: host %q is referenced by the constraint set; update constraints first", op.ID)
		}
		h, ok := o.net.Host(op.ID)
		if !ok {
			return fmt.Errorf("%w: %q", netmodel.ErrUnknownHost, op.ID)
		}
		services := append([]netmodel.ServiceID(nil), h.Services...)
		neighbors := o.net.Neighbors(op.ID)
		if err := o.net.RemoveHost(op.ID); err != nil {
			return err
		}
		o.patchRemoveHost(op.ID, services, neighbors)
		return nil

	case netmodel.OpAddEdge:
		existed := o.net.Connected(op.A, op.B)
		if err := o.net.AddEdge(op.A, op.B); err != nil {
			return err
		}
		if existed {
			return nil // idempotent add: the MRF already has the factors
		}
		return o.patchAddEdge(op.A, op.B)

	case netmodel.OpRemoveEdge:
		existed := o.net.Connected(op.A, op.B)
		if err := o.net.RemoveEdge(op.A, op.B); err != nil {
			return err
		}
		if existed {
			o.patchRemoveEdge(op.A, op.B)
		}
		return nil

	case netmodel.OpUpdateHostServices:
		h, ok := o.net.Host(op.ID)
		if !ok {
			return fmt.Errorf("%w: %q", netmodel.ErrUnknownHost, op.ID)
		}
		structural := !sameServiceShape(h, op.Services, op.Choices)
		oldServices := append([]netmodel.ServiceID(nil), h.Services...)
		if err := o.net.UpdateHostServices(op.ID, op.Services, op.Choices, op.Preference); err != nil {
			return err
		}
		return o.patchUpdateHost(op.ID, oldServices, structural)
	}
	return fmt.Errorf("core: unknown delta op %q", op.Op)
}

// sameServiceShape reports whether the replacement service set keeps the
// exact services and candidate lists (in order) — in which case only unary
// costs (preferences) change and the MRF structure is untouched.
func sameServiceShape(h *netmodel.Host, services []netmodel.ServiceID, choices map[netmodel.ServiceID][]netmodel.ProductID) bool {
	if len(h.Services) != len(services) {
		return false
	}
	for i, s := range services {
		if h.Services[i] != s {
			return false
		}
		old, repl := h.Choices[s], choices[s]
		if len(old) != len(repl) {
			return false
		}
		for l := range old {
			if old[l] != repl[l] {
				return false
			}
		}
	}
	return true
}

// applyCostToVar re-adds the deployment-cost term to one variable's freshly
// set unary row.
func (o *Optimizer) applyCostToVar(p *problem, i int) error {
	if o.costModel == nil || o.costWeight == 0 {
		return nil
	}
	for l, cand := range p.candidates[i] {
		if err := p.graph.AddUnary(i, l, o.costWeight*o.costModel.Cost(cand)); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// patchAddHost appends MRF variables for a freshly added host (its links
// arrive as separate add_edge ops).
func (o *Optimizer) patchAddHost(hid netmodel.HostID) error {
	p := o.prob
	if p == nil {
		return nil
	}
	p.touched[hid] = struct{}{}
	h, _ := o.net.Host(hid)
	for _, s := range h.Services {
		cands := append([]netmodel.ProductID(nil), h.Choices[s]...)
		node, err := p.graph.AddNode(len(cands))
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		p.addVariable(variable{host: hid, service: s}, cands)
		names := make([]string, len(cands))
		for l, c := range cands {
			names[l] = string(c)
		}
		if err := p.graph.SetLabelNames(node, names); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if err := p.setUnaryVar(node, o.net, o.cs); err != nil {
			return err
		}
		if err := o.applyCostToVar(p, node); err != nil {
			return err
		}
		p.markDirty(node)
	}
	return p.addConstraintEdgesForHost(o.net, o.cs, hid)
}

// patchRemoveHost tombstones a removed host's variables: incident factors
// are dropped, unary rows zeroed (so the dead nodes contribute nothing to
// the energy, matching a fresh build of the mutated network) and the former
// neighbours marked dirty.
func (o *Optimizer) patchRemoveHost(hid netmodel.HostID, services []netmodel.ServiceID, neighbors []netmodel.HostID) {
	p := o.prob
	if p == nil {
		return
	}
	p.touched[hid] = struct{}{}
	gone := make(map[int]bool, len(services))
	for _, s := range services {
		v := variable{host: hid, service: s}
		i, ok := p.index[v]
		if !ok {
			continue
		}
		gone[i] = true
		delete(p.index, v)
		delete(p.dirty, i)
		p.dead[i] = true
		p.deadCount++
		p.graph.SetUnaryRow(i, make([]float64, len(p.candidates[i]))) //nolint:errcheck // shape is ours
	}
	p.graph.FilterEdges(func(_, u, v int) bool { return !gone[u] && !gone[v] })
	for _, nb := range neighbors {
		o.markHostDirty(nb)
	}
}

// markHostDirty marks every live variable of a host dirty.
func (o *Optimizer) markHostDirty(hid netmodel.HostID) {
	p := o.prob
	h, ok := o.net.Host(hid)
	if !ok {
		return
	}
	for _, s := range h.Services {
		if i, ok := p.index[variable{host: hid, service: s}]; ok {
			p.markDirty(i)
		}
	}
}

// patchAddEdge adds the similarity factors of a new link (one per shared
// service).  Matrices are content-interned, so links over the same catalogue
// reuse the existing buffers.
func (o *Optimizer) patchAddEdge(a, b netmodel.HostID) error {
	p := o.prob
	if p == nil {
		return nil
	}
	for _, s := range o.net.SharedServices(a, b) {
		ia, oka := p.index[variable{host: a, service: s}]
		ib, okb := p.index[variable{host: b, service: s}]
		if !oka || !okb {
			continue
		}
		cost := similarityMatrix(p.candidates[ia], p.candidates[ib], o.sim)
		if _, err := p.graph.AddEdge(ia, ib, cost); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		p.markDirty(ia)
		p.markDirty(ib)
	}
	return nil
}

// patchRemoveEdge drops every inter-host factor between the two hosts.
func (o *Optimizer) patchRemoveEdge(a, b netmodel.HostID) {
	p := o.prob
	if p == nil {
		return
	}
	p.graph.FilterEdges(func(_, u, v int) bool {
		hu, hv := p.vars[u].host, p.vars[v].host
		drop := (hu == a && hv == b) || (hu == b && hv == a)
		return !drop
	})
	o.markHostDirty(a)
	o.markHostDirty(b)
}

// patchUpdateHost absorbs a service upgrade.  A shape-preserving update
// (same services and candidate lists) is a pure unary patch; a structural
// one tombstones the old variables and re-creates the host's nodes, factors
// and constraint edges.
func (o *Optimizer) patchUpdateHost(hid netmodel.HostID, oldServices []netmodel.ServiceID, structural bool) error {
	p := o.prob
	if p == nil {
		return nil
	}
	if !structural {
		h, _ := o.net.Host(hid)
		for _, s := range h.Services {
			i, ok := p.index[variable{host: hid, service: s}]
			if !ok {
				continue
			}
			if err := p.setUnaryVar(i, o.net, o.cs); err != nil {
				return err
			}
			if err := o.applyCostToVar(p, i); err != nil {
				return err
			}
			p.markDirty(i)
		}
		return nil
	}
	neighbors := o.net.Neighbors(hid)
	o.patchRemoveHost(hid, oldServices, neighbors)
	if err := o.patchAddHost(hid); err != nil {
		return err
	}
	for _, nb := range neighbors {
		if err := o.patchAddEdge(hid, nb); err != nil {
			return err
		}
	}
	return nil
}

// ReoptimizeResult extends Result with the incremental engine's telemetry.
type ReoptimizeResult struct {
	Result
	// Incremental is false when the engine had no prior solution and fell
	// back to a cold Optimize.
	Incremental bool
	// Rebuilt reports that tombstone pressure forced a compacting rebuild
	// since the last solve.
	Rebuilt bool
	// DirtyNodes is the size of the initial dirty frontier handed to the
	// solver (dirty variables plus their one-hop neighbourhood); LiveNodes
	// the number of non-tombstoned variables.
	DirtyNodes int
	LiveNodes  int
}

// Reoptimize re-solves after ApplyDelta calls, warm-starting the configured
// solver from the previous solution with the accumulated dirty frontier so
// untouched regions converge in O(1) sweeps.  Without a prior solution it
// falls back to a cold Optimize.  On error (including cancellation) the
// previous solution is left intact — a cancelled churn step keeps serving
// the last good assignment.
func (o *Optimizer) Reoptimize(ctx context.Context) (ReoptimizeResult, error) {
	start := time.Now()
	if o.prob == nil || o.lastAssignment == nil {
		hadProblem := o.prob != nil
		res, err := o.Optimize(ctx)
		if err != nil {
			return ReoptimizeResult{}, err
		}
		out := ReoptimizeResult{Result: res, Rebuilt: !hadProblem}
		out.LiveNodes = len(o.prob.vars) - o.prob.deadCount
		return out, nil
	}
	p := o.prob
	live := len(p.vars) - p.deadCount
	rebuilt := o.rebuilt
	if len(p.dirty) == 0 {
		// No live variable's neighbourhood changed, so the previous labeling
		// restricted to the surviving variables is still the answer.  The
		// assignment may still need refreshing: removing a host with no live
		// neighbours leaves the dirty set empty while the served assignment
		// must drop the departed host and its energy contribution.
		if o.pendingDeltas {
			warm := p.encodeWarm(o.lastAssignment, p.lastLabels)
			refreshed, err := p.derive(o.net, o.lastAssignment, warm)
			if err != nil {
				return ReoptimizeResult{}, err
			}
			o.absorb(p, refreshed, p.graph.MustEnergy(warm), warm)
		}
		out := ReoptimizeResult{
			Result: Result{
				Assignment: o.lastAssignment,
				Energy:     o.lastEnergy,
				Converged:  true,
				Runtime:    time.Since(start),
				Nodes:      p.graph.NumNodes(),
				Edges:      p.graph.NumEdges(),
			},
			Incremental: true,
			Rebuilt:     rebuilt,
			LiveNodes:   live,
		}
		if o.cs != nil {
			out.ConstraintViolations = o.cs.Violations(out.Assignment, o.net)
		}
		return out, nil
	}

	plainWarm := p.encodeWarm(o.lastAssignment, p.lastLabels)
	mask := p.dirtyMask()
	// Re-colour a wider region than the solver will sweep: basin quality
	// needs coverage, but the solver only has to refine what actually moved
	// (plus the raw dirty set) — the warm kernels grow the frontier on their
	// own wherever labels keep changing.
	warm := p.greedyRecolor(plainWarm, p.expandMask(mask, recolorHops))
	for i := range warm {
		if warm[i] != plainWarm[i] {
			mask[i] = true
		}
	}
	dirtyCount := 0
	for _, d := range mask {
		if d {
			dirtyCount++
		}
	}
	// The warm solve starts inside (or next to) the target basin, so it
	// needs far fewer sweeps than a cold solve and a shorter plateau before
	// declaring convergence.  It runs on the kernel the problem retains.
	if p.kernel == nil {
		k, err := solve.New(string(o.opts.Solver))
		if err != nil {
			return ReoptimizeResult{}, fmt.Errorf("core: %w", err)
		}
		p.kernel = k
	}
	iters := o.opts.MaxIterations
	if iters > reoptimizeMaxIterations {
		iters = reoptimizeMaxIterations
	}
	sol, err := solve.Run(ctx, p.graph, solve.Options{
		MaxIterations: iters,
		Patience:      reoptimizePatience,
		Seed:          o.opts.Seed,
		InitialLabels: warm,
		DirtyMask:     mask,
		Checkpoint:    o.opts.Checkpoint,
	}, p.kernel)
	if err != nil {
		return ReoptimizeResult{}, err
	}
	if !o.opts.DisablePolish {
		// Dirty-restricted local polish: the warm ICM kernel descends from
		// the solver's labeling over the same frontier, so the polish also
		// costs O(dirty) instead of a full sweep.
		polished, perr := solve.Run(ctx, p.graph, solve.Options{
			MaxIterations: 10,
			InitialLabels: sol.Labels,
			DirtyMask:     mask,
			Checkpoint:    o.opts.Checkpoint,
		}, &p.polish)
		if perr != nil {
			return ReoptimizeResult{}, perr
		}
		if polished.Energy < sol.Energy {
			sol.Labels = polished.Labels
			sol.Energy = polished.Energy
		}
	}
	assignment, err := p.derive(o.net, o.lastAssignment, sol.Labels)
	if err != nil {
		return ReoptimizeResult{}, err
	}
	res := ReoptimizeResult{
		Result: Result{
			Assignment:    assignment,
			Energy:        sol.Energy,
			LowerBound:    sol.LowerBound,
			Iterations:    sol.Iterations,
			Converged:     sol.Converged,
			Runtime:       time.Since(start),
			Nodes:         p.graph.NumNodes(),
			Edges:         p.graph.NumEdges(),
			EnergyHistory: sol.EnergyHistory,
		},
		Incremental: true,
		Rebuilt:     rebuilt,
		DirtyNodes:  dirtyCount,
		LiveNodes:   live,
	}
	if o.cs != nil {
		res.ConstraintViolations = o.cs.Violations(assignment, o.net)
	}
	o.absorb(p, assignment, sol.Energy, sol.Labels)
	return res, nil
}

// setSolution is the one writer of the served solution.  labels is the
// labeling a was decoded from on the current problem, or nil when there is
// none (a restored assignment): the next delta then takes the full
// encodeWarm/decode path once, as it does after a problem rebuild.  The
// assignment is sealed here, so everything the optimiser hands out — results,
// LastAssignment, Snapshot — is immutable and shared without a copy.
func (o *Optimizer) setSolution(a *netmodel.Assignment, energy float64, labels []int) {
	o.lastAssignment, o.lastEnergy = a.Seal(), energy
	if o.prob != nil {
		o.prob.lastLabels = labels
	}
}

// absorb records a finished solve: its solution becomes the served one and the
// next warm start, and the delta bookkeeping it consumed is reset.
func (o *Optimizer) absorb(p *problem, a *netmodel.Assignment, energy float64, labels []int) {
	o.setSolution(a, energy, labels)
	p.clearDirty()
	o.rebuilt = false
	o.pendingDeltas = false
}

// LastAssignment returns the most recent solution (nil before the first
// solve).  Callers use it to diff a churn step against the previous
// assignment, or to keep serving that one when the step fails or is
// cancelled.  It is sealed: Clone it to edit.
func (o *Optimizer) LastAssignment() *netmodel.Assignment { return o.lastAssignment }

// Snapshot returns the optimiser's current solution and its energy; ok is
// false before the first successful solve.  The assignment is the sealed value
// the optimiser itself holds — later ApplyDelta/Reoptimize cycles derive new
// assignments and never touch it — so a serving layer can publish it to
// concurrent readers without a copy.  The Optimizer itself is single-writer:
// callers must still serialise the mutating calls.
func (o *Optimizer) Snapshot() (a *netmodel.Assignment, energy float64, ok bool) {
	return o.lastAssignment, o.lastEnergy, o.lastAssignment != nil
}

// RestoreAssignment seeds the optimiser with a previously computed solution —
// the boot-replay counterpart of Snapshot.  A serving layer recovering a
// session from a WAL snapshot installs the recovered assignment here instead
// of re-running the cold solve: the next ApplyDelta/Reoptimize cycle
// warm-starts from it exactly as if this process had produced it, and until
// then LastAssignment/Snapshot serve it unchanged.  The assignment is sealed
// and retained, not copied; callers should pass the energy journaled alongside
// it.
func (o *Optimizer) RestoreAssignment(a *netmodel.Assignment, energy float64) {
	o.setSolution(a, energy, nil)
}

// greedyRecolor rebuilds the masked region of a warm labeling the way the
// cold pipeline's greedy-colouring warm start would: masked nodes are
// treated as unassigned and re-coloured in decreasing-degree order against
// the frozen clean boundary, each picking the label with the smallest unary
// plus pairwise cost toward already-labeled neighbours.  Warm-starting the
// solver from the previous labels alone tends to stay in the previous
// solution's basin; re-colouring the dirty region re-enters the basin the
// cold solve would find, which is what keeps incremental energies within a
// whisker of a full re-solve.  The better of the plain and re-coloured warm
// starts (on the current energy) is returned.
func (p *problem) greedyRecolor(warm []int, mask []bool) []int {
	g := p.graph
	var order []int
	for i, m := range mask {
		if m {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(g.Degree(b), g.Degree(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	recolored := append([]int(nil), warm...)
	assigned := make([]bool, len(warm))
	for i, m := range mask {
		assigned[i] = !m // the clean boundary counts as already assigned
	}
	for _, i := range order {
		row := g.UnaryView(i)
		best, bestCost := recolored[i], math.Inf(1)
		for l := 0; l < g.NumLabels(i); l++ {
			cost := row[l]
			for _, e := range g.IncidentEdges(i) {
				u, v := g.EdgeEndpoints(e)
				if u == i {
					if assigned[v] {
						cost += g.PairwiseCost(e, l, recolored[v])
					}
				} else if assigned[u] {
					cost += g.PairwiseCost(e, recolored[u], l)
				}
			}
			if cost < bestCost {
				best, bestCost = l, cost
			}
		}
		recolored[i] = best
		assigned[i] = true
	}
	if g.MustEnergy(recolored) < g.MustEnergy(warm) {
		return recolored
	}
	return warm
}

// recolorHops is the BFS expansion of the dirty set that the greedy
// re-colouring covers.  It is wider than the solver's initial mask because
// basin quality needs coverage while sweep cost needs the mask tight; the
// re-colouring is a single O(region · degree · labels) pass, so the wide
// region is cheap.
const recolorHops = 2

// dirtyMask converts the dirty set into a solver mask (dead nodes
// excluded).  The patcher already marks the neighbourhood of every change
// (removed hosts mark their former neighbours, new edges both endpoints), so
// the raw set is itself a one-hop frontier around the physical change.
func (p *problem) dirtyMask() []bool {
	mask := make([]bool, p.graph.NumNodes())
	for i := range p.dirty {
		if !p.dead[i] {
			mask[i] = true
		}
	}
	return mask
}

// expandMask returns a copy of the mask grown by `hops` BFS levels over the
// MRF adjacency (dead nodes excluded).
func (p *problem) expandMask(mask []bool, hops int) []bool {
	out := append([]bool(nil), mask...)
	frontier := make([]int, 0, len(p.dirty))
	for i, m := range out {
		if m {
			frontier = append(frontier, i)
		}
	}
	for hop := 0; hop < hops; hop++ {
		var next []int
		for _, i := range frontier {
			for _, e := range p.graph.IncidentEdges(i) {
				u, v := p.graph.EdgeEndpoints(e)
				for _, j := range [2]int{u, v} {
					if !out[j] && !p.dead[j] {
						out[j] = true
						next = append(next, j)
					}
				}
			}
		}
		frontier = next
	}
	return out
}

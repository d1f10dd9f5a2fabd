package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"netdiversity/internal/icm"
	"netdiversity/internal/netmodel"
)

// The paper's optimiser runs "in a multi-level fashion" with parallel
// computation (Section V-C / VIII).  OptimizeParallel reproduces that idea in
// pure Go: the network is partitioned into connected blocks, each block is
// optimised independently by a bounded worker pool (any registered solver),
// and the merged labeling is then refined globally with a local-search pass
// that accounts for the cut edges.  The result is a slightly less tight
// optimum than a full sequential run, obtained in a fraction of the
// wall-clock time on large networks.  For a fixed seed, worker count and
// partition count the result is deterministic: blocks are disjoint, each
// block is solved by a deterministic solver, and the merge and refinement
// steps are order-independent.

// PartitionNetwork splits the hosts of a network into at most `parts`
// connected, roughly balanced blocks using BFS growth from spread-out seeds.
// Every host appears in exactly one block.  The construction is order-stable:
// it depends only on the network's host insertion order and sorted neighbour
// lists, never on map iteration, so repeated calls return identical blocks.
func PartitionNetwork(net *netmodel.Network, parts int) ([][]netmodel.HostID, error) {
	if net == nil {
		return nil, errors.New("core: nil network")
	}
	hosts := net.Hosts()
	if parts <= 1 || len(hosts) <= parts {
		return [][]netmodel.HostID{hosts}, nil
	}
	targetSize := (len(hosts) + parts - 1) / parts

	assigned := make(map[netmodel.HostID]int, len(hosts))
	var blocks [][]netmodel.HostID
	var leftovers []netmodel.HostID

	for _, start := range hosts {
		if _, done := assigned[start]; done {
			continue
		}
		if len(blocks) == parts {
			// All blocks created: attach the remaining hosts afterwards so
			// the attachment rule sees the final block layout.
			leftovers = append(leftovers, start)
			continue
		}
		// Grow a new block by BFS until it reaches the target size.
		blockIdx := len(blocks)
		var block []netmodel.HostID
		queue := []netmodel.HostID{start}
		assigned[start] = blockIdx
		for len(queue) > 0 && len(block) < targetSize {
			cur := queue[0]
			queue = queue[1:]
			block = append(block, cur)
			for _, nb := range net.Neighbors(cur) {
				if _, done := assigned[nb]; done {
					continue
				}
				if len(block)+len(queue) >= targetSize {
					break
				}
				assigned[nb] = blockIdx
				queue = append(queue, nb)
			}
		}
		// Any queued-but-unvisited hosts still belong to this block.
		block = append(block, queue...)
		blocks = append(blocks, block)
	}
	// Attach leftovers in host order: prefer the block of the first (sorted)
	// already-assigned neighbour to keep blocks connected; otherwise fall
	// back to the currently smallest block (ties broken by lowest index).
	for _, hid := range leftovers {
		target := -1
		for _, nb := range net.Neighbors(hid) {
			if bi, ok := assigned[nb]; ok {
				target = bi
				break
			}
		}
		if target < 0 {
			target = 0
			for bi := 1; bi < len(blocks); bi++ {
				if len(blocks[bi]) < len(blocks[target]) {
					target = bi
				}
			}
		}
		blocks[target] = append(blocks[target], hid)
		assigned[hid] = target
	}
	for i := range blocks {
		sort.Slice(blocks[i], func(a, b int) bool { return blocks[i][a] < blocks[i][b] })
	}
	return blocks, nil
}

// subNetwork builds the network induced by the given hosts (intra-block links
// only) and the restriction of the constraint set to those hosts.
func subNetwork(net *netmodel.Network, block []netmodel.HostID, cs *netmodel.ConstraintSet) (*netmodel.Network, *netmodel.ConstraintSet, error) {
	inBlock := make(map[netmodel.HostID]bool, len(block))
	sub := netmodel.New()
	for _, hid := range block {
		h, ok := net.Host(hid)
		if !ok {
			return nil, nil, fmt.Errorf("core: partition references unknown host %q", hid)
		}
		if err := sub.AddHost(h); err != nil {
			return nil, nil, err
		}
		inBlock[hid] = true
	}
	for _, l := range net.Links() {
		if inBlock[l.A] && inBlock[l.B] {
			if err := sub.AddLink(l.A, l.B); err != nil {
				return nil, nil, err
			}
		}
	}
	if cs == nil {
		return sub, nil, nil
	}
	subCS := netmodel.NewConstraintSet()
	for _, hid := range cs.FixedHosts() {
		if !inBlock[hid] {
			continue
		}
		h, _ := net.Host(hid)
		for _, s := range h.Services {
			if p, ok := cs.Fixed(hid, s); ok {
				subCS.Fix(hid, s, p)
			}
		}
	}
	for _, c := range cs.Constraints() {
		if c.Global() || inBlock[c.Host] {
			subCS.Add(c)
		}
	}
	return sub, subCS, nil
}

// ParallelResult extends Result with partition information.
type ParallelResult struct {
	Result
	// Blocks is the number of partition blocks optimised concurrently.
	Blocks int
	// CutLinks is the number of network links crossing block boundaries
	// (handled by the global refinement pass).
	CutLinks int
	// Workers is the size of the worker pool that solved the blocks.
	Workers int
}

// solveBlock optimises one partition block and returns its assignment.
func (o *Optimizer) solveBlock(ctx context.Context, block []netmodel.HostID) (*netmodel.Assignment, error) {
	sub, subCS, err := subNetwork(o.net, block, o.cs)
	if err != nil {
		return nil, err
	}
	subOpt, err := NewOptimizer(sub, o.sim, o.opts)
	if err != nil {
		return nil, err
	}
	if o.costModel != nil {
		if err := subOpt.SetCostModel(*o.costModel, o.costWeight); err != nil {
			return nil, err
		}
	}
	if subCS != nil && !subCS.Empty() {
		if err := subOpt.SetConstraints(subCS); err != nil {
			return nil, err
		}
	}
	res, err := subOpt.Optimize(ctx)
	if err != nil {
		return nil, err
	}
	return res.Assignment, nil
}

// OptimizeParallel partitions the network into `parts` blocks, optimises the
// blocks concurrently with a worker pool bounded by Options.Workers (at
// least one goroutine; capped at the block count) and refines the merged
// assignment globally.  Any registered solver may be selected through
// Options.Solver — the partition-solve-merge-refine pipeline is solver
// agnostic.  With parts <= 1 it falls back to Optimize.
func (o *Optimizer) OptimizeParallel(ctx context.Context, parts int) (ParallelResult, error) {
	start := time.Now()
	if parts <= 1 {
		res, err := o.Optimize(ctx)
		if err != nil {
			return ParallelResult{}, err
		}
		return ParallelResult{Result: res, Blocks: 1, Workers: 1}, nil
	}
	blocks, err := PartitionNetwork(o.net, parts)
	if err != nil {
		return ParallelResult{}, err
	}

	blockIndex := make(map[netmodel.HostID]int, o.net.NumHosts())
	for bi, block := range blocks {
		for _, hid := range block {
			blockIndex[hid] = bi
		}
	}
	cut := 0
	for _, l := range o.net.Links() {
		if blockIndex[l.A] != blockIndex[l.B] {
			cut++
		}
	}

	workers := o.opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(blocks) {
		workers = len(blocks)
	}
	// Bounded pool: block indices are fed through a channel; results land in
	// a per-block slot so the merge below is deterministic regardless of
	// scheduling order.
	results := make([]*netmodel.Assignment, len(blocks))
	errs := make([]error, len(blocks))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for bi := range work {
				// A cancelled context stops the remaining blocks immediately
				// instead of letting each block solver discover it on its
				// own; the optimiser's previous solution stays intact.
				if err := ctx.Err(); err != nil {
					errs[bi] = err
					continue
				}
				results[bi], errs[bi] = o.solveBlock(ctx, blocks[bi])
			}
		}()
	}
feed:
	for bi := range blocks {
		select {
		case work <- bi:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return ParallelResult{}, err
	}
	for _, err := range errs {
		if err != nil {
			return ParallelResult{}, err
		}
	}

	merged := netmodel.NewAssignment()
	for bi, block := range blocks {
		for _, hid := range block {
			for s, p := range results[bi].HostAssignment(hid) {
				merged.Set(hid, s, p)
			}
		}
	}

	// Global refinement on the full problem, starting from the merged
	// block-optimal labeling; this repairs the cut edges.
	prob, err := o.ensureProblem()
	if err != nil {
		return ParallelResult{}, err
	}
	labels, err := prob.encode(merged)
	if err != nil {
		return ParallelResult{}, err
	}
	polished, err := icm.Polish(prob.graph, labels, 20)
	if err != nil {
		return ParallelResult{}, err
	}
	assignment, err := prob.decode(polished.Labels)
	if err != nil {
		return ParallelResult{}, err
	}

	out := ParallelResult{
		Result: Result{
			Assignment: assignment,
			Energy:     polished.Energy,
			LowerBound: prob.graph.TrivialLowerBound(),
			Iterations: polished.Iterations,
			Converged:  polished.Converged,
			Runtime:    time.Since(start),
			Nodes:      prob.graph.NumNodes(),
			Edges:      prob.graph.NumEdges(),
		},
		Blocks:   len(blocks),
		CutLinks: cut,
		Workers:  workers,
	}
	if o.cs != nil {
		out.ConstraintViolations = o.cs.Violations(assignment, o.net)
	}
	// Like Optimize, a parallel solve absorbs every pending delta and seeds
	// the next Reoptimize.
	o.absorb(prob, assignment, polished.Energy, polished.Labels)
	return out, nil
}

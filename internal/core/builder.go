// Package core implements the paper's primary contribution: computing an
// optimal diversification α̂ (and constrained optima α̂_C) for a network by
// encoding the assignment problem as a discrete Markov Random Field
// (Section V) and minimising it with TRW-S or one of the baseline solvers.
//
// The MRF has one node per (host, service) pair whose label space is the set
// of candidate products for that service on that host.  Unary costs encode
// product preferences, pinned products and constraint penalties (Eq. 2);
// pairwise costs on every network link encode the vulnerability similarity
// between the products chosen on the two endpoints (Eq. 3); configuration
// constraints between two services of the same host become intra-host
// pairwise factors.
package core

import (
	"errors"
	"fmt"

	"netdiversity/internal/icm"
	"netdiversity/internal/mrf"
	"netdiversity/internal/netmodel"
	"netdiversity/internal/solve"
	"netdiversity/internal/vulnsim"
)

// variable identifies one MRF node: a (host, service) pair.
type variable struct {
	host    netmodel.HostID
	service netmodel.ServiceID
}

// problem is the MRF encoding of a diversification instance, together with
// the bookkeeping needed to decode a labeling back into an Assignment.  A
// problem is kept alive on the Optimizer across solves and patched in place
// by ApplyDelta, so it also tracks tombstoned variables (removed hosts keep
// their — zeroed, edgeless — MRF nodes until a threshold rebuild compacts
// the graph) and the dirty set consumed by Reoptimize.
type problem struct {
	graph *mrf.Graph
	vars  []variable
	index map[variable]int
	// candidates[i] are the product choices of variable i, in label order.
	candidates [][]netmodel.ProductID
	// dead[i] marks tombstoned variables; deadCount is their number.
	dead      []bool
	deadCount int
	// dirty is the set of live variables whose neighbourhood changed since
	// the last solve.
	dirty map[int]bool

	// lastLabels is the labeling the optimiser's current assignment was
	// decoded from (node indices are stable under patches: removals tombstone,
	// additions append), kept so a delta warm-starts and decodes without
	// walking the assignment.  nil — fresh build, compacting rebuild, restored
	// assignment — sends the next delta down the full encodeWarm/decode path.
	// Written only by Optimizer.setSolution.
	lastLabels []int
	// touched holds the hosts whose variable set a delta changed since the
	// last solve; derive adds the hosts whose labels moved and decodes those.
	touched map[netmodel.HostID]struct{}
	// kernel and polish are the delta path's warm solver and ICM polish,
	// retained across deltas: Kernel.Init is re-callable and refills their
	// O(edges) arenas instead of allocating them (≈1.7 KB per host of
	// pointer-free buffers stay live once a session has taken a delta).
	kernel solve.Kernel
	polish icm.Kernel
}

// addVariable appends a variable's decode bookkeeping; the caller adds the
// graph node.
func (p *problem) addVariable(v variable, cands []netmodel.ProductID) {
	p.index[v] = len(p.vars)
	p.vars = append(p.vars, v)
	p.candidates = append(p.candidates, cands)
	p.dead = append(p.dead, false)
}

// markDirty records a live variable as touched by a delta.
func (p *problem) markDirty(i int) {
	if !p.dead[i] {
		p.dirty[i] = true
	}
}

// clearDirty empties the delta bookkeeping after a solve has absorbed it.
func (p *problem) clearDirty() {
	clear(p.dirty)
	clear(p.touched)
}

// buildProblem constructs the MRF for the network, similarity table and
// constraint set.
func buildProblem(net *netmodel.Network, sim *vulnsim.SimilarityTable, cs *netmodel.ConstraintSet) (*problem, error) {
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid network: %w", err)
	}
	if cs != nil {
		if err := cs.Validate(net); err != nil {
			return nil, fmt.Errorf("core: invalid constraints: %w", err)
		}
	}

	p := &problem{
		index:   make(map[variable]int),
		dirty:   make(map[int]bool),
		touched: make(map[netmodel.HostID]struct{}),
	}
	var labelCounts []int
	for _, hid := range net.Hosts() {
		h, _ := net.Host(hid)
		for _, s := range h.Services {
			cands := append([]netmodel.ProductID(nil), h.Choices[s]...)
			p.addVariable(variable{host: hid, service: s}, cands)
			labelCounts = append(labelCounts, len(cands))
		}
	}
	g, err := mrf.NewGraph(labelCounts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p.graph = g
	for i, cands := range p.candidates {
		names := make([]string, len(cands))
		for l, c := range cands {
			names[l] = string(c)
		}
		if err := g.SetLabelNames(i, names); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	if err := p.addUnaryCosts(net, cs); err != nil {
		return nil, err
	}
	if err := p.addSimilarityEdges(net, sim); err != nil {
		return nil, err
	}
	if err := p.addConstraintEdges(net, cs); err != nil {
		return nil, err
	}
	return p, nil
}

// addUnaryCosts fills in φ: the uniform constant Pr_const, optional host
// preferences, legacy-host pinning (first candidate) and pinned products.
func (p *problem) addUnaryCosts(net *netmodel.Network, cs *netmodel.ConstraintSet) error {
	for i := range p.vars {
		if err := p.setUnaryVar(i, net, cs); err != nil {
			return err
		}
	}
	return nil
}

// setUnaryVar (re)computes the unary cost row of one variable from the
// network's current preferences, legacy pinning and fixed products.  It is
// the unit shared by the full build and the delta patcher.
func (p *problem) setUnaryVar(i int, net *netmodel.Network, cs *netmodel.ConstraintSet) error {
	v := p.vars[i]
	h, ok := net.Host(v.host)
	if !ok {
		return fmt.Errorf("core: variable references unknown host %q", v.host)
	}
	cands := p.candidates[i]
	prefs := h.Preference[v.service]
	fixedProduct, fixed := netmodel.ProductID(""), false
	if cs != nil {
		fixedProduct, fixed = cs.Fixed(v.host, v.service)
	}
	if !fixed && h.Legacy {
		// Legacy hosts cannot be diversified: they keep their first
		// (currently installed) candidate.
		fixedProduct, fixed = cands[0], true
	}
	for l, cand := range cands {
		cost := mrf.UnaryConstant
		if prefs != nil {
			if pr, ok := prefs[cand]; ok {
				// Higher preference -> lower cost.  The constant keeps
				// the unary term on the same scale as the default.
				cost = mrf.UnaryConstant * (1 - clamp01(pr))
			}
		}
		if fixed && cand != fixedProduct {
			cost = mrf.HardPenalty
		}
		if err := p.graph.SetUnary(i, l, cost); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if fixed {
		found := false
		for _, cand := range cands {
			if cand == fixedProduct {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("core: host %q service %q pinned to %q which is not a candidate",
				v.host, v.service, fixedProduct)
		}
	}
	return nil
}

// addSimilarityEdges adds the pairwise similarity factor of Eq. 3 for every
// network link and every service shared by its endpoints.  Edges whose
// endpoints have identical candidate lists share one cost matrix.
func (p *problem) addSimilarityEdges(net *netmodel.Network, sim *vulnsim.SimilarityTable) error {
	if sim == nil {
		return errors.New("core: nil similarity table")
	}
	cache := make(map[uint64][]simCacheEntry)
	for _, link := range net.Links() {
		for _, s := range net.SharedServices(link.A, link.B) {
			ia, oka := p.index[variable{host: link.A, service: s}]
			ib, okb := p.index[variable{host: link.B, service: s}]
			if !oka || !okb {
				continue
			}
			candsA, candsB := p.candidates[ia], p.candidates[ib]
			key := cacheKey(candsA, candsB)
			var cost [][]float64
			for _, e := range cache[key] {
				if equalCandidates(e.a, candsA) && equalCandidates(e.b, candsB) {
					cost = e.cost
					break
				}
			}
			if cost == nil {
				cost = similarityMatrix(candsA, candsB, sim)
				cache[key] = append(cache[key], simCacheEntry{a: candsA, b: candsB, cost: cost})
			}
			if _, err := p.graph.AddEdgeShared(ia, ib, cost); err != nil {
				return fmt.Errorf("core: %w", err)
			}
		}
	}
	return nil
}

// simCacheEntry buckets a cached similarity matrix under its candidate-list
// hash; entries in one bucket are disambiguated by list equality, so a
// 64-bit hash collision can never alias two different matrices.
type simCacheEntry struct {
	a, b []netmodel.ProductID
	cost [][]float64
}

func equalCandidates(a, b []netmodel.ProductID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// similarityMatrix builds the pairwise similarity cost matrix of Eq. 3 for
// two candidate lists.
func similarityMatrix(candsA, candsB []netmodel.ProductID, sim *vulnsim.SimilarityTable) [][]float64 {
	cost := make([][]float64, len(candsA))
	for x, pa := range candsA {
		cost[x] = make([]float64, len(candsB))
		for y, pb := range candsB {
			cost[x][y] = sim.Sim(string(pa), string(pb))
		}
	}
	return cost
}

// addConstraintEdges encodes every require/forbid constraint as an intra-host
// pairwise factor with HardPenalty on the violating label pairs.
func (p *problem) addConstraintEdges(net *netmodel.Network, cs *netmodel.ConstraintSet) error {
	if cs == nil {
		return nil
	}
	for _, c := range cs.Constraints() {
		hosts := net.Hosts()
		if !c.Global() {
			hosts = []netmodel.HostID{c.Host}
		}
		for _, hid := range hosts {
			if err := p.addConstraintEdgeOnHost(net, c, hid); err != nil {
				return err
			}
		}
	}
	return nil
}

// addConstraintEdgeOnHost adds the pairwise factor of one constraint on one
// host (a no-op when the host does not provide both services).
func (p *problem) addConstraintEdgeOnHost(net *netmodel.Network, c netmodel.Constraint, hid netmodel.HostID) error {
	h, ok := net.Host(hid)
	if !ok || !h.HasService(c.ServiceM) || !h.HasService(c.ServiceN) {
		return nil
	}
	im, okm := p.index[variable{host: hid, service: c.ServiceM}]
	in, okn := p.index[variable{host: hid, service: c.ServiceN}]
	if !okm || !okn {
		return nil
	}
	candsM, candsN := p.candidates[im], p.candidates[in]
	cost := make([][]float64, len(candsM))
	for x, pm := range candsM {
		cost[x] = make([]float64, len(candsN))
		if pm != c.ProductJ {
			continue
		}
		for y, pn := range candsN {
			violated := false
			if c.Mode == netmodel.Require && pn != c.ProductK {
				violated = true
			}
			if c.Mode == netmodel.Forbid && pn == c.ProductK {
				violated = true
			}
			if violated {
				cost[x][y] = mrf.HardPenalty
			}
		}
	}
	if _, err := p.graph.AddEdge(im, in, cost); err != nil {
		return fmt.Errorf("core: constraint %s: %w", c, err)
	}
	return nil
}

// addConstraintEdgesForHost adds every constraint factor that applies to one
// host — the host-scoped counterpart of addConstraintEdges used when the
// delta patcher (re)creates a host's variables.
func (p *problem) addConstraintEdgesForHost(net *netmodel.Network, cs *netmodel.ConstraintSet, hid netmodel.HostID) error {
	if cs == nil {
		return nil
	}
	for _, c := range cs.Constraints() {
		if !c.Global() && c.Host != hid {
			continue
		}
		if err := p.addConstraintEdgeOnHost(net, c, hid); err != nil {
			return err
		}
	}
	return nil
}

// decode converts an MRF labeling into an Assignment.  Tombstoned variables
// (removed hosts awaiting compaction) are skipped.  A label whose product the
// variable lists twice is folded, in place, onto the first occurrence — the
// label encodeWarm's look-up would find — so that kept labels and re-encoded
// ones agree.  Deltas on a problem that kept its labels use derive instead.
func (p *problem) decode(labels []int) (*netmodel.Assignment, error) {
	if len(labels) != len(p.vars) {
		return nil, fmt.Errorf("core: labeling has %d entries, want %d", len(labels), len(p.vars))
	}
	a := netmodel.NewAssignment()
	for i, v := range p.vars {
		if p.dead[i] {
			continue
		}
		l := labels[i]
		if l < 0 || l >= len(p.candidates[i]) {
			return nil, fmt.Errorf("core: label %d out of range for %s/%s", l, v.host, v.service)
		}
		labels[i] = candidateIndex(p.candidates[i], p.candidates[i][l])
		a.Set(v.host, v.service, p.candidates[i][l])
	}
	return a, nil
}

// encode converts an Assignment into an MRF labeling (used to evaluate the
// energy of baseline assignments on the same objective).  Tombstoned
// variables take label 0; their unary row is zeroed and they have no edges,
// so the choice does not affect the energy.
func (p *problem) encode(a *netmodel.Assignment) ([]int, error) {
	labels := make([]int, len(p.vars))
	for i, v := range p.vars {
		if p.dead[i] {
			continue
		}
		prod, ok := a.Get(v.host, v.service)
		if !ok {
			return nil, fmt.Errorf("core: assignment misses %s/%s", v.host, v.service)
		}
		found := candidateIndex(p.candidates[i], prod)
		if found < 0 {
			return nil, fmt.Errorf("core: assignment uses %q which is not a candidate of %s/%s",
				prod, v.host, v.service)
		}
		labels[i] = found
	}
	return labels, nil
}

// encodeWarm converts a (possibly stale) assignment into a warm-start
// labeling: variables the assignment covers take their recorded label, new
// variables fall back to their greedy-unary label, tombstones take 0.  Unlike
// encode it never fails — a warm start only has to be a valid labeling, not a
// complete one.  kept, when non-nil, is the labeling a was decoded from
// (problem.lastLabels): surviving variables then reuse their label and only
// variables appended since are looked up in a — the same labels, without
// walking the assignment.
func (p *problem) encodeWarm(a *netmodel.Assignment, kept []int) []int {
	labels := make([]int, len(p.vars))
	for i, v := range p.vars {
		switch {
		case p.dead[i]:
		case i < len(kept):
			labels[i] = kept[i]
		default:
			labels[i] = p.warmLabel(v, i, a)
		}
	}
	return labels
}

// warmLabel is the warm-start label of one live variable looked up in a.
func (p *problem) warmLabel(v variable, i int, a *netmodel.Assignment) int {
	if prod, ok := a.Get(v.host, v.service); ok {
		if l := candidateIndex(p.candidates[i], prod); l >= 0 {
			return l
		}
	}
	row := p.graph.UnaryView(i)
	best := 0
	for l := 1; l < len(row); l++ {
		if row[l] < row[best] {
			best = l
		}
	}
	return best
}

// derive is decode for a delta: only the hosts a delta touched structurally and
// the hosts with a label that moved off the last solve's are decoded, and the
// result shares every other host's map with prev (netmodel.Assignment.With).
// Without kept labels it is a full decode; the result is sealed either way.
func (p *problem) derive(net *netmodel.Network, prev *netmodel.Assignment, labels []int) (*netmodel.Assignment, error) {
	if p.lastLabels == nil {
		a, err := p.decode(labels)
		if err != nil {
			return nil, err
		}
		return a.Seal(), nil
	}
	moved := p.touched // a superset is harmless, and the caller clears it next
	for i, l := range labels {
		if !p.dead[i] && (i >= len(p.lastLabels) || l != p.lastLabels[i]) {
			moved[p.vars[i].host] = struct{}{}
		}
	}
	changed := make(map[netmodel.HostID]map[netmodel.ServiceID]netmodel.ProductID, len(moved))
	var removed []netmodel.HostID
	for hid := range moved {
		h, ok := net.Host(hid)
		if !ok {
			removed = append(removed, hid)
			continue
		}
		m := make(map[netmodel.ServiceID]netmodel.ProductID, len(h.Services))
		for _, s := range h.Services {
			i := p.index[variable{host: hid, service: s}]
			m[s] = p.candidates[i][labels[i]]
			labels[i] = candidateIndex(p.candidates[i], m[s]) // as decode does
		}
		changed[hid] = m
	}
	return prev.With(changed, removed), nil
}

func candidateIndex(cands []netmodel.ProductID, p netmodel.ProductID) int {
	for l, c := range cands {
		if c == p {
			return l
		}
	}
	return -1
}

// FNV-1a parameters (hash/fnv is avoided on this per-edge hot path: hashing
// inline keeps the key computation allocation-free, where the previous
// string-concatenation key allocated per edge).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// cacheKey hashes two candidate lists into the pairwise-matrix cache key.
// Product names are separated by a terminator byte so list boundaries cannot
// alias ("ab","c" vs "a","bc").
func cacheKey(a, b []netmodel.ProductID) uint64 {
	h := uint64(fnvOffset64)
	for _, p := range a {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= fnvPrime64
		}
		h ^= 0xff
		h *= fnvPrime64
	}
	h ^= 0xfe
	h *= fnvPrime64
	for _, p := range b {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= fnvPrime64
		}
		h ^= 0xff
		h *= fnvPrime64
	}
	return h
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Package metrics implements the three network-diversity security metrics of
// Zhang et al. ("Network diversity: a security metric for evaluating the
// resilience of networks against zero-day attacks", IEEE TIFS 2016), which
// the paper builds on for its BN-based metric (Section VI) and cites as the
// standard way to quantify how diverse a deployed configuration is:
//
//   - d1 — richness/Shannon-effective-number diversity: the effective number
//     of distinct products in the network divided by the number of hosts
//     (instances), averaged over services.
//   - d2 — least attacking effort: the minimum number of *distinct* products
//     an attacker must be able to exploit on any attack path from an entry
//     host to a target host (normalised by path length).
//   - d3 — average attacking effort: the expected number of distinct products
//     that must be exploited to compromise the target, weighted by how likely
//     each attack path is under the similarity-aware infection model.
//
// These metrics complement the paper's d_bn: they need no probabilistic
// inference, so they scale to very large networks, and they expose *why* an
// assignment is fragile (few distinct products vs. a single weak path).
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"netdiversity/internal/netmodel"
	"netdiversity/internal/vulnsim"
)

// ErrNilInput is returned when a metric receives nil inputs.
var ErrNilInput = errors.New("metrics: network, assignment and similarity table must not be nil")

// EffectiveRichness reports the d1 metric for one service and aggregated.
type EffectiveRichness struct {
	// PerService maps every service to its effective number of products
	// (exp of the Shannon entropy of the product distribution) divided by
	// the number of hosts providing the service.
	PerService map[netmodel.ServiceID]float64
	// EffectiveNumbers maps every service to the raw effective number of
	// products (before normalisation).
	EffectiveNumbers map[netmodel.ServiceID]float64
	// Overall is the mean of PerService over all services.
	Overall float64
}

// Richness computes the d1 metric: for each service, the Shannon-effective
// number of products used across the network divided by the number of
// product instances, averaged over services.  A value of 1 means every host
// runs a distinct product; 1/n means a mono-culture over n hosts.
func Richness(net *netmodel.Network, a *netmodel.Assignment) (EffectiveRichness, error) {
	if net == nil || a == nil {
		return EffectiveRichness{}, ErrNilInput
	}
	if err := a.ValidateFor(net); err != nil {
		return EffectiveRichness{}, fmt.Errorf("metrics: %w", err)
	}
	counts := make(map[netmodel.ServiceID]map[netmodel.ProductID]int)
	instances := make(map[netmodel.ServiceID]int)
	for _, hid := range net.Hosts() {
		h, _ := net.Host(hid)
		for _, s := range h.Services {
			p, ok := a.Get(hid, s)
			if !ok {
				continue
			}
			if counts[s] == nil {
				counts[s] = make(map[netmodel.ProductID]int)
			}
			counts[s][p]++
			instances[s]++
		}
	}
	out := EffectiveRichness{
		PerService:       make(map[netmodel.ServiceID]float64, len(counts)),
		EffectiveNumbers: make(map[netmodel.ServiceID]float64, len(counts)),
	}
	// Sorted iteration keeps the float summation order (and therefore the
	// last-ULP result) identical across runs, so benchmark reports comparing
	// the metric byte-for-byte stay deterministic.
	services := make([]netmodel.ServiceID, 0, len(counts))
	for s := range counts {
		services = append(services, s)
	}
	sort.Slice(services, func(i, j int) bool { return services[i] < services[j] })
	total := 0.0
	for _, s := range services {
		byProduct := counts[s]
		products := make([]netmodel.ProductID, 0, len(byProduct))
		for p := range byProduct {
			products = append(products, p)
		}
		sort.Slice(products, func(i, j int) bool { return products[i] < products[j] })
		n := float64(instances[s])
		entropy := 0.0
		for _, p := range products {
			f := float64(byProduct[p]) / n
			entropy -= f * math.Log(f)
		}
		effective := math.Exp(entropy)
		out.EffectiveNumbers[s] = effective
		out.PerService[s] = effective / n
		total += out.PerService[s]
	}
	if len(counts) > 0 {
		out.Overall = total / float64(len(counts))
	}
	return out, nil
}

// PathEffort describes one attack path and the attacking effort along it.
type PathEffort struct {
	// Hosts is the path from entry to target (inclusive).
	Hosts []netmodel.HostID
	// DistinctProducts is the number of distinct products the attacker must
	// be able to exploit along the path (counting, per step, the product
	// actually attacked on the destination host).
	DistinctProducts int
	// Likelihood is the product of per-step success probabilities under the
	// similarity-aware infection model (used to weight d3).
	Likelihood float64
}

// EffortConfig parameterises the attack-effort metrics.
type EffortConfig struct {
	// Entry and Target bound the attack paths considered.
	Entry  netmodel.HostID
	Target netmodel.HostID
	// PAvg is the base zero-day propagation rate of the infection model
	// (default 0.2), used only to weight paths for d3.
	PAvg float64
	// ExploitServices restricts the services the attacker can exploit
	// (nil = all).
	ExploitServices []netmodel.ServiceID
	// MaxPaths bounds the number of shortest paths enumerated (default 64).
	MaxPaths int
	// MaxExtraHops allows paths up to shortest+MaxExtraHops long
	// (default 1).
	MaxExtraHops int
}

func (c EffortConfig) withDefaults() EffortConfig {
	if c.PAvg <= 0 || c.PAvg >= 1 {
		c.PAvg = 0.2
	}
	if c.MaxPaths <= 0 {
		c.MaxPaths = 64
	}
	if c.MaxExtraHops < 0 {
		c.MaxExtraHops = 1
	}
	return c
}

func (c EffortConfig) allowsService(s netmodel.ServiceID) bool {
	if len(c.ExploitServices) == 0 {
		return true
	}
	for _, e := range c.ExploitServices {
		if e == s {
			return true
		}
	}
	return false
}

// EffortResult reports the d2 and d3 metrics.
type EffortResult struct {
	// LeastEffort is d2: the minimum number of distinct products on any
	// enumerated attack path, divided by the path length (so that longer
	// paths with the same product mix score lower diversity per step).
	LeastEffort float64
	// LeastEffortProducts is the raw distinct-product count of that path.
	LeastEffortProducts int
	// AverageEffort is d3: the likelihood-weighted mean number of distinct
	// products over all enumerated attack paths.
	AverageEffort float64
	// Paths are the enumerated attack paths, most likely first.
	Paths []PathEffort
}

// Effort computes the d2/d3 attacking-effort metrics for an assignment.
func Effort(net *netmodel.Network, a *netmodel.Assignment, sim *vulnsim.SimilarityTable, cfg EffortConfig) (EffortResult, error) {
	if net == nil || a == nil || sim == nil {
		return EffortResult{}, ErrNilInput
	}
	if err := a.ValidateFor(net); err != nil {
		return EffortResult{}, fmt.Errorf("metrics: %w", err)
	}
	cfg = cfg.withDefaults()
	if _, ok := net.Host(cfg.Entry); !ok {
		return EffortResult{}, fmt.Errorf("metrics: unknown entry host %q", cfg.Entry)
	}
	if _, ok := net.Host(cfg.Target); !ok {
		return EffortResult{}, fmt.Errorf("metrics: unknown target host %q", cfg.Target)
	}
	dist := net.ShortestPathLengths(cfg.Entry)
	shortest, ok := dist[cfg.Target]
	if !ok {
		return EffortResult{}, fmt.Errorf("metrics: target %q not reachable from %q", cfg.Target, cfg.Entry)
	}
	maxLen := shortest + cfg.MaxExtraHops

	paths := enumeratePaths(net, cfg.Entry, cfg.Target, maxLen, cfg.MaxPaths)
	if len(paths) == 0 {
		return EffortResult{}, fmt.Errorf("metrics: no attack path of length <= %d found", maxLen)
	}

	var out EffortResult
	out.LeastEffort = math.Inf(1)
	sumWeighted, sumWeights := 0.0, 0.0
	for _, hosts := range paths {
		pe := pathEffort(net, a, sim, cfg, hosts)
		out.Paths = append(out.Paths, pe)
		steps := float64(len(hosts) - 1)
		normalised := float64(pe.DistinctProducts) / steps
		if normalised < out.LeastEffort {
			out.LeastEffort = normalised
			out.LeastEffortProducts = pe.DistinctProducts
		}
		sumWeighted += pe.Likelihood * float64(pe.DistinctProducts)
		sumWeights += pe.Likelihood
	}
	if sumWeights > 0 {
		out.AverageEffort = sumWeighted / sumWeights
	}
	sort.Slice(out.Paths, func(i, j int) bool { return out.Paths[i].Likelihood > out.Paths[j].Likelihood })
	return out, nil
}

// pathEffort computes the distinct-product count and likelihood of one path.
func pathEffort(net *netmodel.Network, a *netmodel.Assignment, sim *vulnsim.SimilarityTable, cfg EffortConfig, hosts []netmodel.HostID) PathEffort {
	pe := PathEffort{Hosts: hosts, Likelihood: 1}
	distinct := make(map[netmodel.ProductID]struct{})
	for i := 0; i+1 < len(hosts); i++ {
		src, dst := hosts[i], hosts[i+1]
		// The attacker picks the service with the highest success
		// probability; the exploited product is the destination's product
		// for that service.
		bestProb := 0.0
		var bestProduct netmodel.ProductID
		for _, s := range net.SharedServices(src, dst) {
			if !cfg.allowsService(s) {
				continue
			}
			pu, oku := a.Get(src, s)
			pv, okv := a.Get(dst, s)
			if !oku || !okv {
				continue
			}
			prob := cfg.PAvg + (1-cfg.PAvg)*sim.Sim(string(pu), string(pv))
			if prob > bestProb {
				bestProb = prob
				bestProduct = pv
			}
		}
		if bestProb == 0 {
			pe.Likelihood = 0
			continue
		}
		pe.Likelihood *= bestProb
		distinct[bestProduct] = struct{}{}
	}
	pe.DistinctProducts = len(distinct)
	return pe
}

// enumeratePaths lists simple paths from entry to target with at most maxLen
// edges, up to maxPaths paths, shortest first (DFS with depth bound).
func enumeratePaths(net *netmodel.Network, entry, target netmodel.HostID, maxLen, maxPaths int) [][]netmodel.HostID {
	var out [][]netmodel.HostID
	visited := map[netmodel.HostID]bool{entry: true}
	path := []netmodel.HostID{entry}
	var dfs func(cur netmodel.HostID)
	dfs = func(cur netmodel.HostID) {
		if len(out) >= maxPaths {
			return
		}
		if cur == target {
			cp := make([]netmodel.HostID, len(path))
			copy(cp, path)
			out = append(out, cp)
			return
		}
		if len(path)-1 >= maxLen {
			return
		}
		for _, nb := range net.Neighbors(cur) {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			path = append(path, nb)
			dfs(nb)
			path = path[:len(path)-1]
			visited[nb] = false
		}
	}
	dfs(entry)
	sort.SliceStable(out, func(i, j int) bool { return len(out[i]) < len(out[j]) })
	if len(out) > maxPaths {
		out = out[:maxPaths]
	}
	return out
}

// Summary bundles all three Zhang-style metrics for one assignment, as
// reported by the metrics experiment and `div report`.
type Summary struct {
	Richness      EffectiveRichness
	LeastEffort   float64
	AverageEffort float64
}

// Evaluate computes d1, d2 and d3 in one call.
func Evaluate(net *netmodel.Network, a *netmodel.Assignment, sim *vulnsim.SimilarityTable, cfg EffortConfig) (Summary, error) {
	rich, err := Richness(net, a)
	if err != nil {
		return Summary{}, err
	}
	effort, err := Effort(net, a, sim, cfg)
	if err != nil {
		return Summary{}, err
	}
	return Summary{
		Richness:      rich,
		LeastEffort:   effort.LeastEffort,
		AverageEffort: effort.AverageEffort,
	}, nil
}

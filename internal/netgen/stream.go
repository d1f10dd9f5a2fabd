// Streaming (CSR-direct) generation for the scale benchmarks.  The map-based
// netmodel.Network path deep-copies per-host service/choice maps and tops out
// around 10^5 hosts; UniformGraph skips netmodel entirely and emits the
// diversification MRF directly — flat label counts, one spanning-chain +
// random-pair link list packed into sorted uint64s, and one identity-interned
// cost matrix per service — so a million-host problem materialises in a few
// hundred MB instead of tens of GB.
package netgen

import (
	"math/rand"
	"slices"

	"netdiversity/internal/mrf"
)

// UniformGraph generates the diversification MRF of a connected uniform
// random network directly, without materialising a netmodel.Network.  Node
// host*Services+s is host `host`'s service-s variable with ProductsPerService
// labels; the topology is the same family Random builds (spanning chain plus
// Hosts*Degree/2 random links, deduplicated), and every link contributes one
// edge per service whose cost matrix is the synthetic similarity of that
// service's products (identity-interned: one matrix per service regardless of
// edge count).
//
// Generation is deterministic for a fixed config, including across calls.
func UniformGraph(cfg RandomConfig) (*mrf.Graph, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	links := uniformLinks(cfg)

	counts := make([]int, cfg.Hosts*cfg.Services)
	for i := range counts {
		counts[i] = cfg.ProductsPerService
	}
	g, err := mrf.NewGraph(counts)
	if err != nil {
		return nil, err
	}
	// Constant unaries do not change the argmin, but keeping them makes
	// graph-direct energies comparable with the netmodel→core path.
	for i := range counts {
		for l := 0; l < cfg.ProductsPerService; l++ {
			if err := g.SetUnary(i, l, mrf.UnaryConstant); err != nil {
				return nil, err
			}
		}
	}

	mats := serviceMatrices(cfg)
	for _, packed := range links {
		a := int(packed >> 32)
		b := int(packed & 0xffffffff)
		for s := 0; s < cfg.Services; s++ {
			if _, err := g.AddEdgeShared(a*cfg.Services+s, b*cfg.Services+s, mats[s]); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// uniformLinks builds the deduplicated, sorted host-pair list of a uniform
// random topology: the spanning chain plus Hosts*Degree/2 random pairs, each
// packed as lowHost<<32|highHost.  Duplicates are removed by sorting, so the
// realised link count can fall marginally short of the target — the same
// tolerance Random has via its bounded-attempts loop, without a hash set
// growing with the network.
func uniformLinks(cfg RandomConfig) []uint64 {
	rng := rand.New(rand.NewSource(cfg.Seed))
	target := cfg.Hosts * cfg.Degree / 2
	extra := target - (cfg.Hosts - 1)
	links := make([]uint64, 0, cfg.Hosts-1+max(extra, 0))
	for i := 1; i < cfg.Hosts; i++ {
		links = append(links, uint64(i-1)<<32|uint64(i))
	}
	for k := 0; k < extra; k++ {
		a := rng.Intn(cfg.Hosts)
		b := rng.Intn(cfg.Hosts)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		links = append(links, uint64(a)<<32|uint64(b))
	}
	slices.Sort(links)
	return slices.Compact(links)
}

// serviceMatrices builds one pairwise cost matrix per service from the
// synthetic similarity model (self-similarity 1 on the diagonal, off-diagonal
// values in [0, 0.6] drawn from the same seeded stream SyntheticSimilarity
// uses).  Every returned matrix is a distinct slice identity so
// AddEdgeShared interns each service's matrix exactly once.
func serviceMatrices(cfg RandomConfig) [][][]float64 {
	sim := SyntheticSimilarity(cfg, 0.6)
	mats := make([][][]float64, cfg.Services)
	for s := 0; s < cfg.Services; s++ {
		m := make([][]float64, cfg.ProductsPerService)
		for a := 0; a < cfg.ProductsPerService; a++ {
			m[a] = make([]float64, cfg.ProductsPerService)
			pa := string(ProductName(s, a))
			for b := 0; b < cfg.ProductsPerService; b++ {
				m[a][b] = sim.Sim(pa, string(ProductName(s, b)))
			}
		}
		mats[s] = m
	}
	return mats
}

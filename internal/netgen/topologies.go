package netgen

import (
	"fmt"
	"math/rand"
	"slices"

	"netdiversity/internal/netmodel"
)

// Topology selects the random-graph family used by Generate.  The paper's
// scalability study uses degree-targeted random graphs (TopologyUniform); the
// malware-propagation literature additionally studies scale-free and
// small-world topologies, which concentrate or localise connectivity and
// therefore stress the optimiser differently.
type Topology int

const (
	// TopologyUniform is the degree-targeted uniform random graph used by
	// Tables VII-IX (the behaviour of Random).
	TopologyUniform Topology = iota + 1
	// TopologyScaleFree is a Barabási–Albert preferential-attachment graph:
	// a few hub hosts with very high degree, as in flat enterprise networks.
	TopologyScaleFree
	// TopologySmallWorld is a Watts–Strogatz ring with rewired chords:
	// high clustering with short path lengths, as in segmented plants with a
	// few cross-zone conduits.
	TopologySmallWorld
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case TopologyUniform:
		return "uniform"
	case TopologyScaleFree:
		return "scale-free"
	case TopologySmallWorld:
		return "small-world"
	default:
		return fmt.Sprintf("topology(%d)", int(t))
	}
}

// Generate builds a random network with the requested topology; the host,
// service and product layout follows cfg exactly as in Random.
func Generate(cfg RandomConfig, topology Topology) (*netmodel.Network, error) {
	switch topology {
	case TopologyUniform, 0:
		return Random(cfg)
	case TopologyScaleFree:
		return scaleFree(cfg)
	case TopologySmallWorld:
		return smallWorld(cfg)
	default:
		return nil, fmt.Errorf("netgen: unknown topology %v", topology)
	}
}

// emptyHosts creates the hosts (no links) for a random config and returns the
// network plus the host ID list.
func emptyHosts(cfg RandomConfig) (*netmodel.Network, []netmodel.HostID, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	n := netmodel.New()
	services := make([]netmodel.ServiceID, cfg.Services)
	choices := make(map[netmodel.ServiceID][]netmodel.ProductID, cfg.Services)
	for s := 0; s < cfg.Services; s++ {
		services[s] = ServiceName(s)
		ps := make([]netmodel.ProductID, cfg.ProductsPerService)
		for p := 0; p < cfg.ProductsPerService; p++ {
			ps[p] = ProductName(s, p)
		}
		choices[services[s]] = ps
	}
	hosts := make([]netmodel.HostID, cfg.Hosts)
	for i := 0; i < cfg.Hosts; i++ {
		hosts[i] = netmodel.HostID(fmt.Sprintf("h%d", i))
		h := &netmodel.Host{ID: hosts[i], Zone: "synthetic", Services: services, Choices: choices}
		if err := n.AddHost(h); err != nil {
			return nil, nil, err
		}
	}
	return n, hosts, nil
}

// scaleFree implements Barabási–Albert preferential attachment with
// m = Degree/2 edges per new node (minimum 1).
func scaleFree(cfg RandomConfig) (*netmodel.Network, error) {
	n, hosts, err := emptyHosts(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := cfg.Degree / 2
	if m < 1 {
		m = 1
	}
	if m >= len(hosts) {
		m = len(hosts) - 1
	}
	// Seed clique of m+1 hosts.
	var targets []netmodel.HostID // repeated by degree (attachment weights)
	for i := 0; i <= m; i++ {
		for j := 0; j < i; j++ {
			if err := n.AddLink(hosts[i], hosts[j]); err != nil {
				return nil, err
			}
			targets = append(targets, hosts[i], hosts[j])
		}
	}
	chosen := make([]netmodel.HostID, 0, m)
	for i := m + 1; i < len(hosts); i++ {
		// The picks are linked in draw order, so the network (and the
		// attachment weights later hosts draw from) is a pure function of
		// the seed.
		chosen = chosen[:0]
		for len(chosen) < m {
			var pick netmodel.HostID
			if len(targets) == 0 {
				pick = hosts[rng.Intn(i)]
			} else {
				pick = targets[rng.Intn(len(targets))]
			}
			if pick == hosts[i] || slices.Contains(chosen, pick) {
				continue
			}
			chosen = append(chosen, pick)
		}
		for _, target := range chosen {
			if err := n.AddLink(hosts[i], target); err != nil {
				return nil, err
			}
			targets = append(targets, hosts[i], target)
		}
	}
	return n, nil
}

// smallWorld implements Watts–Strogatz: a ring lattice where every host is
// connected to its Degree/2 nearest neighbours on each side, with 10% of the
// edges rewired to random endpoints.
func smallWorld(cfg RandomConfig) (*netmodel.Network, error) {
	n, hosts, err := emptyHosts(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	k := cfg.Degree / 2
	if k < 1 {
		k = 1
	}
	const rewireProbability = 0.1
	total := len(hosts)
	for i := 0; i < total; i++ {
		for j := 1; j <= k; j++ {
			target := hosts[(i+j)%total]
			if rng.Float64() < rewireProbability {
				// Rewire to a random non-self endpoint.
				for tries := 0; tries < 10; tries++ {
					cand := hosts[rng.Intn(total)]
					if cand != hosts[i] {
						target = cand
						break
					}
				}
			}
			if target == hosts[i] {
				continue
			}
			if err := n.AddLink(hosts[i], target); err != nil {
				return nil, err
			}
		}
	}
	// Guarantee connectivity with a spanning chain (rewiring can in rare
	// cases disconnect small graphs).
	for i := 1; i < total; i++ {
		if err := n.AddLink(hosts[i-1], hosts[i]); err != nil {
			return nil, err
		}
	}
	return n, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"netdiversity/internal/netgen"
	"netdiversity/internal/netmodel"
	"netdiversity/internal/serve"
)

// Tenant network shape shared by every workload: the paper's scalability
// study parameters (uniform random graph, degree 8, 3 services, 4 candidate
// products per service).
const (
	netDegree   = 8
	netServices = 3
	netProducts = 4
	// catalogueSeed fixes the product similarity table across run seeds: the
	// catalogue is the deployment's, only topologies and request streams are
	// the run's.
	catalogueSeed = 1
	solverIters   = 100
)

// tenant is one long-lived session: the prebuilt create body plus the
// client's own model of the network, kept in step with every acked delta so
// structural ops always reference hosts and links that exist.
type tenant struct {
	id         string
	seed       int64
	createBody []byte
	// specBody is the bare network spec of createBody (the traced run's
	// library replica decodes it directly).
	specBody []byte

	services []netmodel.ServiceID
	choices  map[netmodel.ServiceID][]netmodel.ProductID
	hosts    []netmodel.HostID
	pos      map[netmodel.HostID]int
	links    [][2]netmodel.HostID
	joined   int
	// created is the host count of createBody (transient creates start there).
	created int

	// version and hash are the last acked write's; lastRead is the version
	// the previous assignment read of this tenant returned (0 = none yet),
	// which classifies the next read as fresh or cached.
	version  uint64
	hash     string
	energy   float64
	lastRead uint64
}

// similaritySpec renders the fixed synthetic catalogue in the create
// endpoint's custom-table form.
func similaritySpec() *serve.SimilaritySpec {
	sim := netgen.SyntheticSimilarity(netgen.RandomConfig{
		Hosts: 2, Services: netServices, ProductsPerService: netProducts, Seed: catalogueSeed,
	}, 0.6)
	products := sim.Products()
	spec := &serve.SimilaritySpec{Kind: "custom"}
	for i, a := range products {
		for _, b := range products[i+1:] {
			if s := sim.Sim(a, b); s != 0 {
				spec.Entries = append(spec.Entries, serve.SimilarityEntry{A: a, B: b, Sim: s})
			}
		}
	}
	return spec
}

// buildTenants generates the tenant population of a workload.  Topologies
// (and the sessions' solver seeds) belong to the workload, not to the run:
// a 6000-host topology alone moves solve times by 30%, which would drown
// any regression bound if every run seed drew its own.  The run seed drives
// the request stream instead (see schedule).
func buildTenants(w workload) ([]*tenant, error) {
	sim := similaritySpec()
	out := make([]*tenant, w.tenants)
	for i := range out {
		tseed := int64(1000 + i)
		nw, err := netgen.Generate(netgen.RandomConfig{
			Hosts: w.hosts, Degree: netDegree, Services: netServices,
			ProductsPerService: netProducts, Seed: tseed,
		}, netgen.TopologyUniform)
		if err != nil {
			return nil, fmt.Errorf("tenant %d: %w", i, err)
		}
		spec := netmodel.ToSpec(nw, nil)
		t := &tenant{
			id:       fmt.Sprintf("t%d", i),
			seed:     tseed,
			created:  len(spec.Hosts),
			services: spec.Hosts[0].Services,
			choices:  spec.Hosts[0].Choices,
			hosts:    make([]netmodel.HostID, len(spec.Hosts)),
			pos:      make(map[netmodel.HostID]int, len(spec.Hosts)),
			links:    make([][2]netmodel.HostID, len(spec.Links)),
		}
		for j, h := range spec.Hosts {
			t.hosts[j] = h.ID
			t.pos[h.ID] = j
		}
		for j, l := range spec.Links {
			t.links[j] = [2]netmodel.HostID{l.A, l.B}
		}
		if t.specBody, err = json.Marshal(spec); err != nil {
			return nil, err
		}
		t.createBody, err = json.Marshal(serve.CreateRequest{
			ID: t.id, Spec: spec, Solver: w.solver, Seed: tseed, MaxIterations: solverIters, Similarity: sim,
		})
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

func (t *tenant) randHost(rng *rand.Rand) netmodel.HostID {
	return t.hosts[rng.Intn(len(t.hosts))]
}

func (t *tenant) addHost(id netmodel.HostID) {
	t.pos[id] = len(t.hosts)
	t.hosts = append(t.hosts, id)
}

func (t *tenant) removeHost(id netmodel.HostID) {
	i := t.pos[id]
	last := len(t.hosts) - 1
	t.hosts[i] = t.hosts[last]
	t.pos[t.hosts[i]] = i
	t.hosts = t.hosts[:last]
	delete(t.pos, id)
}

// nudge is the non-structural delta: an update_services that keeps the
// host's shape and moves one preference weight, dirtying one unary factor.
func (t *tenant) nudge(rng *rand.Rand) netmodel.Delta {
	svc := t.services[rng.Intn(len(t.services))]
	ps := t.choices[svc]
	return netmodel.Delta{Ops: []netmodel.DeltaOp{{
		Op:       netmodel.OpUpdateHostServices,
		ID:       t.randHost(rng),
		Services: t.services,
		Choices:  t.choices,
		Preference: map[netmodel.ServiceID]map[netmodel.ProductID]float64{
			svc: {ps[rng.Intn(len(ps))]: float64(rng.Intn(1000)) / 2000},
		},
	}}}
}

// structural builds a delta of 1-4 topology-changing actions in equal
// shares and applies them to the client model.
func (t *tenant) structural(rng *rand.Rand) netmodel.Delta {
	var d netmodel.Delta
	for n := 1 + rng.Intn(4); n > 0; n-- {
		switch rng.Intn(5) {
		case 0: // host leave; its links die with it and are dropped lazily below
			if len(t.hosts) <= 2*netDegree {
				continue
			}
			id := t.randHost(rng)
			t.removeHost(id)
			d.Ops = append(d.Ops, netmodel.DeltaOp{Op: netmodel.OpRemoveHost, ID: id})
		case 1: // host join wired to netDegree neighbours
			id := netmodel.HostID(fmt.Sprintf("j%d", t.joined))
			t.joined++
			d.Ops = append(d.Ops, netmodel.DeltaOp{Op: netmodel.OpAddHost, Host: &netmodel.HostSpec{
				ID: id, Zone: "synthetic", Services: t.services, Choices: t.choices,
			}})
			for k := 0; k < netDegree; k++ {
				nb := t.randHost(rng)
				t.links = append(t.links, [2]netmodel.HostID{id, nb})
				d.Ops = append(d.Ops, netmodel.DeltaOp{Op: netmodel.OpAddEdge, A: id, B: nb})
			}
			t.addHost(id)
		case 2: // link add
			a, b := t.randHost(rng), t.randHost(rng)
			if a == b {
				continue
			}
			t.links = append(t.links, [2]netmodel.HostID{a, b})
			d.Ops = append(d.Ops, netmodel.DeltaOp{Op: netmodel.OpAddEdge, A: a, B: b})
		case 3: // link remove
			for len(t.links) > 0 {
				i := rng.Intn(len(t.links))
				l := t.links[i]
				t.links[i] = t.links[len(t.links)-1]
				t.links = t.links[:len(t.links)-1]
				_, okA := t.pos[l[0]]
				_, okB := t.pos[l[1]]
				if okA && okB {
					d.Ops = append(d.Ops, netmodel.DeltaOp{Op: netmodel.OpRemoveEdge, A: l[0], B: l[1]})
					break
				}
			}
		case 4: // service upgrade: one service loses one candidate product
			svc := t.services[rng.Intn(len(t.services))]
			drop := rng.Intn(netProducts)
			choices := make(map[netmodel.ServiceID][]netmodel.ProductID, len(t.choices))
			for s, ps := range t.choices {
				choices[s] = ps
			}
			kept := make([]netmodel.ProductID, 0, netProducts-1)
			for i, p := range t.choices[svc] {
				if i != drop {
					kept = append(kept, p)
				}
			}
			choices[svc] = kept
			d.Ops = append(d.Ops, netmodel.DeltaOp{
				Op: netmodel.OpUpdateHostServices, ID: t.randHost(rng),
				Services: t.services, Choices: choices,
			})
		}
	}
	if len(d.Ops) == 0 {
		return t.nudge(rng)
	}
	return d
}

package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"netdiversity/internal/netgen"
	"netdiversity/internal/netmodel"
	"netdiversity/internal/vulnsim"

	// core reaches multilevel through the solve registry only.
	_ "netdiversity/internal/multilevel"
)

const (
	streamDegree   = 8
	streamServices = 3
	streamProducts = 4
)

func streamFixture(tb testing.TB, hosts int) (*netmodel.Network, *vulnsim.SimilarityTable) {
	tb.Helper()
	cfg := netgen.RandomConfig{Hosts: hosts, Degree: streamDegree, Services: streamServices, ProductsPerService: streamProducts, Seed: 1}
	net, err := netgen.Generate(cfg, netgen.TopologyUniform)
	if err != nil {
		tb.Fatal(err)
	}
	return net, netgen.SyntheticSimilarity(cfg, 0.6)
}

func streamOptimizer(tb testing.TB, net *netmodel.Network, sim *vulnsim.SimilarityTable, solver string) *Optimizer {
	tb.Helper()
	s, err := ParseSolver(solver)
	if err != nil {
		tb.Fatal(err)
	}
	opt, err := NewOptimizer(net, sim, Options{Solver: s, MaxIterations: 40, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return opt
}

func streamCatalogue() ([]netmodel.ServiceID, map[netmodel.ServiceID][]netmodel.ProductID) {
	services := make([]netmodel.ServiceID, streamServices)
	choices := make(map[netmodel.ServiceID][]netmodel.ProductID, streamServices)
	for s := range services {
		services[s] = netgen.ServiceName(s)
		for p := 0; p < streamProducts; p++ {
			choices[services[s]] = append(choices[services[s]], netgen.ProductName(s, p))
		}
	}
	return services, choices
}

// nudgeDelta is the one-host preference update the steady workloads send.
func nudgeDelta(net *netmodel.Network, rng *rand.Rand) netmodel.Delta {
	services, choices := streamCatalogue()
	hosts := net.Hosts()
	svc := services[rng.Intn(len(services))]
	return netmodel.Delta{Ops: []netmodel.DeltaOp{{
		Op:       netmodel.OpUpdateHostServices,
		ID:       hosts[rng.Intn(len(hosts))],
		Services: services,
		Choices:  choices,
		Preference: map[netmodel.ServiceID]map[netmodel.ProductID]float64{
			svc: {choices[svc][rng.Intn(streamProducts)]: float64(rng.Intn(1000)) / 2000},
		},
	}}}
}

// structuralDelta is one of the five topology-changing actions the churn
// workload mixes: host leave, host join wired to streamDegree neighbours,
// link add, link remove, and a service upgrade that drops a candidate.
func structuralDelta(net *netmodel.Network, rng *rand.Rand, step int) netmodel.Delta {
	services, choices := streamCatalogue()
	hosts := net.Hosts()
	pick := func() netmodel.HostID { return hosts[rng.Intn(len(hosts))] }
	switch rng.Intn(5) {
	case 0:
		return netmodel.Delta{Ops: []netmodel.DeltaOp{{Op: netmodel.OpRemoveHost, ID: pick()}}}
	case 1:
		id := netmodel.HostID(fmt.Sprintf("j%d", step))
		d := netmodel.Delta{Ops: []netmodel.DeltaOp{{Op: netmodel.OpAddHost, Host: &netmodel.HostSpec{
			ID: id, Zone: "synthetic", Services: services, Choices: choices,
		}}}}
		for k := 0; k < streamDegree; k++ {
			d.Ops = append(d.Ops, netmodel.DeltaOp{Op: netmodel.OpAddEdge, A: id, B: pick()})
		}
		return d
	case 2:
		if a, b := pick(), pick(); a != b {
			return netmodel.Delta{Ops: []netmodel.DeltaOp{{Op: netmodel.OpAddEdge, A: a, B: b}}}
		}
	case 3:
		if links := net.Links(); len(links) > 0 {
			l := links[rng.Intn(len(links))]
			return netmodel.Delta{Ops: []netmodel.DeltaOp{{Op: netmodel.OpRemoveEdge, A: l.A, B: l.B}}}
		}
	case 4:
		svc := services[rng.Intn(len(services))]
		upgraded := make(map[netmodel.ServiceID][]netmodel.ProductID, len(choices))
		for s, ps := range choices {
			upgraded[s] = ps
		}
		drop := rng.Intn(streamProducts)
		upgraded[svc] = append(append([]netmodel.ProductID(nil), choices[svc][:drop]...), choices[svc][drop+1:]...)
		return netmodel.Delta{Ops: []netmodel.DeltaOp{{
			Op: netmodel.OpUpdateHostServices, ID: pick(), Services: services, Choices: upgraded,
		}}}
	}
	return nudgeDelta(net, rng)
}

// TestMultilevelDeltaStreamTracksColdSolve is the differential test of the
// warm multilevel path: over 200 mixed churn steps on a session above
// multilevel's matching limit every re-solve must be incremental, and the
// energy it drifts to must stay within 2% of what a cold multilevel solve of
// the same network finds.
func TestMultilevelDeltaStreamTracksColdSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a 16.5k-node network cold a dozen times")
	}
	const hosts = 5500 // x3 services = 16 500 MRF nodes
	net, sim := streamFixture(t, hosts)
	opt := streamOptimizer(t, net, sim, "multilevel")
	first, err := opt.Optimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first.Nodes < 16000 {
		t.Fatalf("fixture has %d MRF nodes, want >= 16000", first.Nodes)
	}
	rng := rand.New(rand.NewSource(5))
	for step := 1; step <= 200; step++ {
		d := nudgeDelta(opt.net, rng)
		if rng.Intn(2) == 0 {
			d = structuralDelta(opt.net, rng, step)
		}
		if err := opt.ApplyDelta(d); err != nil {
			t.Fatalf("step %d: ApplyDelta(%+v): %v", step, d, err)
		}
		res, err := opt.Reoptimize(context.Background())
		if err != nil {
			t.Fatalf("step %d: Reoptimize: %v", step, err)
		}
		if !res.Incremental {
			t.Fatalf("step %d: re-solve was not incremental", step)
		}
		if res.Iterations > reoptimizeMaxIterations {
			t.Fatalf("step %d: %d sweeps, the warm budget is %d", step, res.Iterations, reoptimizeMaxIterations)
		}
		if step%20 != 0 {
			continue
		}
		if err := res.Assignment.ValidateFor(opt.net); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		cold, err := streamOptimizer(t, opt.net, sim, "multilevel").Optimize(context.Background())
		if err != nil {
			t.Fatalf("step %d: cold solve: %v", step, err)
		}
		gap := (res.Energy - cold.Energy) / math.Abs(cold.Energy)
		t.Logf("step %d: incremental %.2f cold %.2f gap %+.2f%% dirty %d sweeps %d", step, res.Energy, cold.Energy, gap*100, res.DirtyNodes, res.Iterations)
		if gap > 0.02 {
			t.Fatalf("step %d: incremental energy %v is %.2f%% above the cold solve's %v", step, res.Energy, gap*100, cold.Energy)
		}
	}
}

// BenchmarkReoptimizeNudge is the layer-level number behind the benchmark's
// core.reoptimize_ms: one Reoptimize after a one-host preference nudge on a
// 6000-host tenant, per solver.
func BenchmarkReoptimizeNudge(b *testing.B) {
	for _, solver := range []string{"trws", "multilevel"} {
		b.Run(solver+"/h6000", func(b *testing.B) {
			net, sim := streamFixture(b, 6000)
			opt := streamOptimizer(b, net, sim, solver)
			if _, err := opt.Optimize(context.Background()); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			b.ReportAllocs()
			for b.Loop() {
				b.StopTimer()
				if err := opt.ApplyDelta(nudgeDelta(opt.net, rng)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := opt.Reoptimize(context.Background())
				if err != nil || !res.Incremental {
					b.Fatalf("Reoptimize: incremental=%v err=%v", res.Incremental, err)
				}
			}
		})
	}
}

package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"netdiversity/internal/baseline"
	"netdiversity/internal/netgen"
	"netdiversity/internal/netmodel"
	"netdiversity/internal/vulnsim"
)

// triangleNetwork builds three fully connected hosts with one OS service and
// two candidate products whose similarity is 0.8.
func triangleNetwork(t *testing.T) (*netmodel.Network, *vulnsim.SimilarityTable) {
	t.Helper()
	net := netmodel.New()
	for _, id := range []netmodel.HostID{"a", "b", "c"} {
		h := &netmodel.Host{
			ID:       id,
			Services: []netmodel.ServiceID{"os"},
			Choices:  map[netmodel.ServiceID][]netmodel.ProductID{"os": {"p1", "p2"}},
		}
		if err := net.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]netmodel.HostID{{"a", "b"}, {"b", "c"}, {"a", "c"}} {
		if err := net.AddLink(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	sim := vulnsim.NewSimilarityTable([]string{"p1", "p2"})
	_ = sim.SetTotal("p1", 100)
	_ = sim.SetTotal("p2", 100)
	_ = sim.Set("p1", "p2", 0.8, 80)
	return net, sim
}

func caseNetwork(t *testing.T) (*netmodel.Network, *vulnsim.SimilarityTable) {
	t.Helper()
	net := netmodel.New()
	for _, id := range []netmodel.HostID{"x", "y"} {
		h := &netmodel.Host{
			ID:       id,
			Services: []netmodel.ServiceID{"os", "wb"},
			Choices: map[netmodel.ServiceID][]netmodel.ProductID{
				"os": {"win7", "ubt1404"},
				"wb": {"ie10", "chrome50"},
			},
		}
		if err := net.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.AddLink("x", "y"); err != nil {
		t.Fatal(err)
	}
	return net, vulnsim.PaperSimilarity()
}

func TestNewOptimizerValidation(t *testing.T) {
	net, sim := triangleNetwork(t)
	if _, err := NewOptimizer(nil, sim, Options{}); !errors.Is(err, ErrNilInput) {
		t.Error("nil network should be rejected")
	}
	if _, err := NewOptimizer(net, nil, Options{}); !errors.Is(err, ErrNilInput) {
		t.Error("nil similarity table should be rejected")
	}
	if _, err := NewOptimizer(netmodel.New(), sim, Options{}); err == nil {
		t.Error("empty network should be rejected")
	}
	opt, err := NewOptimizer(net, sim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Constraints() != nil {
		t.Error("fresh optimiser should have no constraints")
	}
}

func TestOptimizeTriangle(t *testing.T) {
	net, sim := triangleNetwork(t)
	opt, err := NewOptimizer(net, sim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Optimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.ValidateFor(net); err != nil {
		t.Fatalf("assignment invalid: %v", err)
	}
	// On a triangle with two products one edge must carry identical products.
	// The optimum uses two distinct products ({A,A,B} up to symmetry), giving
	// pairwise cost 1.0 + 0.8 + 0.8 = 2.6; the homogeneous labeling costs 3.0.
	cost, err := PairwiseSimilarityCost(net, sim, res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-2.6) > 1e-9 {
		t.Errorf("triangle pairwise cost = %v, want 2.6", cost)
	}
	if res.Nodes != 3 || res.Edges != 3 {
		t.Errorf("MRF size = %d nodes %d edges, want 3/3", res.Nodes, res.Edges)
	}
	if res.Energy < res.LowerBound-1e-9 {
		t.Error("energy below lower bound")
	}
}

func TestOptimizeBeatsBaselines(t *testing.T) {
	cfg := netgen.RandomConfig{Hosts: 60, Degree: 6, Services: 3, ProductsPerService: 4, Seed: 3}
	net, err := netgen.Random(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := netgen.SyntheticSimilarity(cfg, 0.6)
	opt, err := NewOptimizer(net, sim, Options{MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Optimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	optCost, err := PairwiseSimilarityCost(net, sim, res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	random, err := baseline.Random(net, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	randomCost, _ := PairwiseSimilarityCost(net, sim, random)
	mono, err := baseline.Mono(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	monoCost, _ := PairwiseSimilarityCost(net, sim, mono)
	if optCost >= randomCost {
		t.Errorf("optimal cost %v should beat random %v", optCost, randomCost)
	}
	if optCost >= monoCost {
		t.Errorf("optimal cost %v should beat mono %v", optCost, monoCost)
	}
}

func TestEnergyMatchesManualComputation(t *testing.T) {
	net, sim := caseNetwork(t)
	opt, err := NewOptimizer(net, sim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := netmodel.NewAssignment()
	a.Set("x", "os", "win7")
	a.Set("x", "wb", "ie10")
	a.Set("y", "os", "win7")
	a.Set("y", "wb", "chrome50")
	got, err := opt.Energy(a)
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 1: unary 4 * 0.01 + pairwise sim(win7,win7)=1 + sim(ie10,chrome50)=0.
	want := 4*0.01 + 1.0 + sim.Sim("ie10", "chrome50")
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Energy = %v, want %v", got, want)
	}

	if _, err := opt.Energy(nil); err == nil {
		t.Error("nil assignment should be rejected")
	}
	incomplete := netmodel.NewAssignment()
	incomplete.Set("x", "os", "win7")
	if _, err := opt.Energy(incomplete); err == nil {
		t.Error("incomplete assignment should be rejected")
	}
	bad := a.Clone()
	bad.Set("x", "os", "not_a_candidate")
	if _, err := opt.Energy(bad); err == nil {
		t.Error("non-candidate product should be rejected")
	}
}

func TestOptimizeWithFixedConstraint(t *testing.T) {
	net, sim := caseNetwork(t)
	cs := netmodel.NewConstraintSet()
	cs.Fix("x", "os", "win7")
	cs.Fix("y", "os", "win7")
	opt, err := NewOptimizer(net, sim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.SetConstraints(cs); err != nil {
		t.Fatal(err)
	}
	res, err := opt.Optimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.Product("x", "os") != "win7" || res.Assignment.Product("y", "os") != "win7" {
		t.Errorf("fixed products not respected: %v", res.Assignment)
	}
	if len(res.ConstraintViolations) != 0 {
		t.Errorf("unexpected violations: %v", res.ConstraintViolations)
	}
	// The browsers remain free and should be diversified.
	if res.Assignment.Product("x", "wb") == res.Assignment.Product("y", "wb") {
		t.Error("free browsers should be diversified")
	}
}

func TestOptimizeWithForbidConstraint(t *testing.T) {
	net, sim := caseNetwork(t)
	cs := netmodel.NewConstraintSet()
	cs.Add(netmodel.Constraint{
		Host:     netmodel.AllHosts,
		ServiceM: "os",
		ServiceN: "wb",
		ProductJ: "ubt1404",
		ProductK: "ie10",
		Mode:     netmodel.Forbid,
	})
	opt, err := NewOptimizer(net, sim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.SetConstraints(cs); err != nil {
		t.Fatal(err)
	}
	res, err := opt.Optimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, hid := range net.Hosts() {
		if res.Assignment.Product(hid, "os") == "ubt1404" && res.Assignment.Product(hid, "wb") == "ie10" {
			t.Errorf("forbidden combination ubt1404+ie10 assigned on %s", hid)
		}
	}
	if len(res.ConstraintViolations) != 0 {
		t.Errorf("unexpected violations: %v", res.ConstraintViolations)
	}
}

func TestOptimizeWithRequireConstraint(t *testing.T) {
	net, sim := caseNetwork(t)
	cs := netmodel.NewConstraintSet()
	cs.Fix("x", "os", "win7")
	cs.Add(netmodel.Constraint{
		Host:     "x",
		ServiceM: "os",
		ServiceN: "wb",
		ProductJ: "win7",
		ProductK: "ie10",
		Mode:     netmodel.Require,
	})
	opt, err := NewOptimizer(net, sim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.SetConstraints(cs); err != nil {
		t.Fatal(err)
	}
	res, err := opt.Optimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.Product("x", "wb") != "ie10" {
		t.Errorf("require constraint not honoured: %v", res.Assignment)
	}
}

func TestOptimizeLegacyHostPinned(t *testing.T) {
	net := netmodel.New()
	legacy := &netmodel.Host{
		ID:       "legacy",
		Legacy:   true,
		Services: []netmodel.ServiceID{"os"},
		Choices:  map[netmodel.ServiceID][]netmodel.ProductID{"os": {"winxp", "win7"}},
	}
	modern := &netmodel.Host{
		ID:       "modern",
		Services: []netmodel.ServiceID{"os"},
		Choices:  map[netmodel.ServiceID][]netmodel.ProductID{"os": {"winxp", "win7"}},
	}
	if err := net.AddHost(legacy); err != nil {
		t.Fatal(err)
	}
	if err := net.AddHost(modern); err != nil {
		t.Fatal(err)
	}
	if err := net.AddLink("legacy", "modern"); err != nil {
		t.Fatal(err)
	}
	opt, err := NewOptimizer(net, vulnsim.PaperSimilarity(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Optimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.Product("legacy", "os") != "winxp" {
		t.Errorf("legacy host should keep its first (installed) candidate, got %v",
			res.Assignment.Product("legacy", "os"))
	}
	if res.Assignment.Product("modern", "os") != "win7" {
		t.Errorf("modern host should diversify away from the legacy product, got %v",
			res.Assignment.Product("modern", "os"))
	}
}

func TestSetConstraintsValidation(t *testing.T) {
	net, sim := caseNetwork(t)
	opt, err := NewOptimizer(net, sim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := netmodel.NewConstraintSet()
	bad.Fix("x", "os", "not_a_candidate")
	if err := opt.SetConstraints(bad); err == nil {
		t.Error("invalid constraint set should be rejected")
	}
	if err := opt.SetConstraints(nil); err != nil {
		t.Errorf("clearing constraints should succeed: %v", err)
	}
}

func TestSolvers(t *testing.T) {
	net, sim := caseNetwork(t)
	for _, solver := range []Solver{SolverTRWS, SolverBP, SolverICM, SolverAnneal} {
		opt, err := NewOptimizer(net, sim, Options{Solver: solver, MaxIterations: 20, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Optimize(context.Background())
		if err != nil {
			t.Fatalf("solver %s: %v", solver, err)
		}
		if err := res.Assignment.ValidateFor(net); err != nil {
			t.Errorf("solver %s produced an invalid assignment: %v", solver, err)
		}
	}
	opt, _ := NewOptimizer(net, sim, Options{Solver: Solver("nope")})
	if _, err := opt.Optimize(context.Background()); err == nil {
		t.Error("unknown solver should be rejected")
	}
}

func TestParseSolver(t *testing.T) {
	tests := []struct {
		in      string
		want    Solver
		wantErr bool
	}{
		{"trws", SolverTRWS, false},
		{"", SolverTRWS, false},
		{"bp", SolverBP, false},
		{"icm", SolverICM, false},
		{"anneal", SolverAnneal, false},
		{"bogus", "", true},
	}
	for _, tt := range tests {
		got, err := ParseSolver(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseSolver(%q) should fail", tt.in)
			}
			continue
		}
		if err != nil || got != tt.want {
			t.Errorf("ParseSolver(%q) = %v, %v", tt.in, got, err)
		}
	}
	if string(SolverTRWS) != "trws" {
		t.Errorf("SolverTRWS = %q, want the registry name", SolverTRWS)
	}
}

func TestPairwiseSimilarityCostErrors(t *testing.T) {
	net, sim := caseNetwork(t)
	if _, err := PairwiseSimilarityCost(nil, sim, netmodel.NewAssignment()); err == nil {
		t.Error("nil network should be rejected")
	}
	if _, err := PairwiseSimilarityCost(net, sim, nil); err == nil {
		t.Error("nil assignment should be rejected")
	}
	incomplete := netmodel.NewAssignment()
	incomplete.Set("x", "os", "win7")
	if _, err := PairwiseSimilarityCost(net, sim, incomplete); err == nil {
		t.Error("incomplete assignment should be rejected")
	}
}

func TestOptimizeContextCancelled(t *testing.T) {
	net, sim := caseNetwork(t)
	opt, err := NewOptimizer(net, sim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := opt.Optimize(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context should surface, got %v", err)
	}
}

func TestDisableWarmStart(t *testing.T) {
	// The triangle is tie-heavy: unary costs are uniform, so a raw (no
	// polish) one-sweep BP decode collapses to the homogeneous labeling
	// (energy 3*0.8 + unary), while the greedy-colouring warm start
	// alternates products and leaves only one conflicting edge (0.8 +
	// unary).  The energy gap discriminates the flag: if DisableWarmStart
	// were a no-op, both runs would return the warm-started energy.
	net, sim := triangleNetwork(t)
	solveRaw := func(disableWarmStart bool) Result {
		t.Helper()
		opt, err := NewOptimizer(net, sim, Options{
			Solver:           SolverBP,
			MaxIterations:    1,
			Seed:             1,
			DisablePolish:    true,
			DisableWarmStart: disableWarmStart,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Optimize(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Assignment.ValidateFor(net); err != nil {
			t.Fatalf("assignment invalid: %v", err)
		}
		return res
	}
	coldRes := solveRaw(true)
	warmRes := solveRaw(false)
	if coldRes.Energy <= warmRes.Energy {
		t.Errorf("cold-start energy %v should exceed warm-started energy %v on the tie-heavy triangle",
			coldRes.Energy, warmRes.Energy)
	}
	// The warm start seeds the solver with the greedy-colouring baseline, so
	// the warm result can never be worse than that baseline.
	greedy, err := baseline.GreedyColoring(net, sim, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewOptimizer(net, sim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	greedyEnergy, err := opt.Energy(greedy)
	if err != nil {
		t.Fatal(err)
	}
	if warmRes.Energy > greedyEnergy+1e-9 {
		t.Errorf("warm-started energy %v worse than its greedy seed %v", warmRes.Energy, greedyEnergy)
	}
}

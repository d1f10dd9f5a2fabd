package experiments

import (
	"context"
	"fmt"

	"netdiversity/internal/attacksim"
	"netdiversity/internal/baseline"
	"netdiversity/internal/bayes"
	"netdiversity/internal/casestudy"
	"netdiversity/internal/core"
	"netdiversity/internal/netmodel"
	"netdiversity/internal/vulnsim"
)

// CaseStudyAssignments bundles the five assignments evaluated in Tables V
// and VI: the unconstrained optimum α̂, the host-constrained optimum α̂_C1,
// the product-constrained optimum α̂_C2, a random assignment α_r and the
// homogeneous assignment α_m.
type CaseStudyAssignments struct {
	Network    *netmodel.Network
	Similarity *vulnsim.SimilarityTable
	Optimal    *netmodel.Assignment
	HostConstr *netmodel.Assignment
	ProdConstr *netmodel.Assignment
	Random     *netmodel.Assignment
	Mono       *netmodel.Assignment
	// Energies holds the Eq. 1 objective of every assignment under the
	// unconstrained problem, for reporting.
	Energies map[string]float64
}

// BuildCaseStudy computes all five case-study assignments.
func BuildCaseStudy(cfg Config) (*CaseStudyAssignments, error) {
	cfg = cfg.withDefaults()
	net, err := casestudy.Build()
	if err != nil {
		return nil, err
	}
	sim := casestudy.Similarity()

	optimize := func(cs *netmodel.ConstraintSet) (*netmodel.Assignment, error) {
		opt, err := core.NewOptimizer(net, sim, core.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		if cs != nil {
			if err := opt.SetConstraints(cs); err != nil {
				return nil, err
			}
		}
		res, err := opt.Optimize(context.Background())
		if err != nil {
			return nil, err
		}
		if len(res.ConstraintViolations) > 0 {
			return nil, fmt.Errorf("experiments: constrained optimum violates constraints: %v",
				res.ConstraintViolations)
		}
		return res.Assignment, nil
	}

	out := &CaseStudyAssignments{Network: net, Similarity: sim, Energies: make(map[string]float64)}
	if out.Optimal, err = optimize(nil); err != nil {
		return nil, err
	}
	if out.HostConstr, err = optimize(casestudy.HostConstraints()); err != nil {
		return nil, err
	}
	if out.ProdConstr, err = optimize(casestudy.ProductConstraints()); err != nil {
		return nil, err
	}
	if out.Random, err = baseline.Random(net, nil, cfg.Seed); err != nil {
		return nil, err
	}
	if out.Mono, err = baseline.Mono(net, nil); err != nil {
		return nil, err
	}

	evalOpt, err := core.NewOptimizer(net, sim, core.Options{})
	if err != nil {
		return nil, err
	}
	for name, a := range out.byName() {
		e, err := evalOpt.Energy(a)
		if err != nil {
			return nil, err
		}
		out.Energies[name] = e
	}
	return out, nil
}

func (c *CaseStudyAssignments) byName() map[string]*netmodel.Assignment {
	return map[string]*netmodel.Assignment{
		"optimal":     c.Optimal,
		"host_constr": c.HostConstr,
		"prod_constr": c.ProdConstr,
		"random":      c.Random,
		"mono":        c.Mono,
	}
}

// orderedNames is the presentation order of Table V / VI rows.
var orderedNames = []struct {
	key   string
	label string
	desc  string
}{
	{"optimal", "α̂", "optimal assignment"},
	{"host_constr", "α̂_C1", "host constraints"},
	{"prod_constr", "α̂_C2", "product constraints"},
	{"random", "α_r", "random assignment"},
	{"mono", "α_m", "mono assignment"},
}

// Figure4 renders the three optimal assignments of the case study
// (Fig. 4(a)-(c)) host by host, plus the changes the constraints force
// relative to the unconstrained optimum.
func Figure4(cfg Config) (*Table, error) {
	cs, err := BuildCaseStudy(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig4",
		Title:   "Optimal assignments of products for the case study",
		Columns: []string{"host", "zone", "optimal α̂", "host-constrained α̂_C1", "product-constrained α̂_C2"},
	}
	describe := func(a *netmodel.Assignment, hid netmodel.HostID) string {
		h, _ := cs.Network.Host(hid)
		out := ""
		for i, svc := range h.Services {
			if i > 0 {
				out += " "
			}
			out += string(a.Product(hid, svc))
		}
		return out
	}
	for _, hid := range cs.Network.Hosts() {
		h, _ := cs.Network.Host(hid)
		t.AddRow(string(hid), h.Zone, describe(cs.Optimal, hid), describe(cs.HostConstr, hid), describe(cs.ProdConstr, hid))
	}
	t.AddNote("α̂ vs α̂_C1: %d host/service changes; α̂_C1 vs α̂_C2: %d host/service changes",
		len(cs.Optimal.Diff(cs.HostConstr)), len(cs.HostConstr.Diff(cs.ProdConstr)))
	t.AddNote("objective energies: optimal=%.3f host-constrained=%.3f product-constrained=%.3f",
		cs.Energies["optimal"], cs.Energies["host_constr"], cs.Energies["prod_constr"])
	return t, nil
}

// caseStudyBayesConfig is the Table V attack model: entry c4, target t5,
// three zero-day exploits (OS, browser, database), uniform exploit choice.
func caseStudyBayesConfig() bayes.Config {
	return bayes.Config{
		Entry:           casestudy.EntryCorporate4,
		Target:          casestudy.TargetWinCC,
		ExploitServices: casestudy.AttackServices(),
		Choice:          bayes.ChooseUniform,
		PAvg:            0.2,
	}
}

// TableV regenerates the diversity-metric comparison of the five assignments
// (Table V of the paper).
func TableV(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	cs, err := BuildCaseStudy(cfg)
	if err != nil {
		return nil, err
	}
	inference := bayes.InferenceOptions{Samples: 150000, Seed: cfg.Seed}
	if cfg.Full {
		inference.Samples = 500000
	}

	t := &Table{
		ID:      "table5",
		Title:   "Diversity metric d_bn of different assignments (entry c4, target t5)",
		Columns: []string{"label", "description", "logP'(t5)", "logP(t5)", "d_bn"},
	}
	byName := cs.byName()
	for _, row := range orderedNames {
		a := byName[row.key]
		m, err := bayes.Diversity(cs.Network, a, cs.Similarity, caseStudyBayesConfig(), inference)
		if err != nil {
			return nil, err
		}
		t.AddRow(row.label, row.desc,
			formatFloat(m.LogPTargetNoSim, 3), formatFloat(m.LogPTarget, 3), formatFloat(m.Diversity, 5))
	}
	t.AddNote("d_bn = P'(t5)/P(t5); larger is more diverse; paper reports 0.815 / 0.486 / 0.481 / 0.266 / 0.067")
	t.AddNote("absolute probabilities depend on the average zero-day rate P_avg=%.2f; the ordering is the reproduced result", 0.2)
	return t, nil
}

// TableVI regenerates the Mean-Time-To-Compromise simulation of Table VI:
// five entry hosts × four assignments (α̂, α̂_C1, α̂_C2, α_m).
func TableVI(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	cs, err := BuildCaseStudy(cfg)
	if err != nil {
		return nil, err
	}
	runs := 200
	if cfg.Full {
		runs = 1000
	}
	entries := casestudy.Entries()

	t := &Table{
		ID:      "table6",
		Title:   "MTTC (in ticks) against different assignments",
		Columns: append([]string{"assignment"}, entryColumns(entries)...),
	}
	rows := []struct {
		key   string
		label string
	}{
		{"optimal", "α̂"},
		{"host_constr", "α̂_C1"},
		{"prod_constr", "α̂_C2"},
		{"mono", "α_m"},
	}
	byName := cs.byName()
	for _, row := range rows {
		a := byName[row.key]
		sim, err := attacksim.New(cs.Network, a, cs.Similarity)
		if err != nil {
			return nil, err
		}
		cells := []string{row.label}
		for _, entry := range entries {
			// Workers only batches the runs over the pool; per-run seeding
			// makes the table identical to a serial campaign.
			res, err := sim.Run(attacksim.Config{
				Entry:           entry,
				Target:          casestudy.TargetWinCC,
				Runs:            runs,
				MaxTicks:        500,
				Strategy:        attacksim.Reconnaissance,
				ExploitServices: casestudy.AttackServices(),
				Seed:            cfg.Seed + int64(len(cells)),
				PAvg:            0.2,
				Workers:         4,
			})
			if err != nil {
				return nil, err
			}
			cells = append(cells, formatFloat(res.MTTC, 3))
		}
		t.AddRow(cells...)
	}
	t.AddNote("%d simulation runs per cell (paper: 1000); reconnaissance attacker with one zero-day per service", runs)
	t.AddNote("expected shape: α̂ needs the most ticks from every entry point, α_m the fewest")
	return t, nil
}

func entryColumns(entries []netmodel.HostID) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = "MTTC from " + string(e)
	}
	return out
}

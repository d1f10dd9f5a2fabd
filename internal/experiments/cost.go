package experiments

import (
	"context"

	"netdiversity/internal/bayes"
	"netdiversity/internal/casestudy"
	"netdiversity/internal/core"
	"netdiversity/internal/netmodel"
	"netdiversity/internal/vulnsim"
)

// caseStudyCostModel assigns plausible relative deployment costs to the
// case-study products: staying on the already-licensed legacy products is
// cheap, modern Microsoft products carry licence costs, and migrating to a
// different OS family is the most expensive option (retraining, integration
// testing).  Absolute units are arbitrary; only the relative order matters
// for the Pareto sweep.
func caseStudyCostModel() core.CostModel {
	return core.CostModel{
		DefaultCost: 1,
		Costs: map[netmodel.ProductID]float64{
			// Operating systems.
			vulnsim.ProdWinXP:  0.5, // already deployed, no licence
			vulnsim.ProdWin7:   1.0,
			vulnsim.ProdUbuntu: 3.0, // OS-family migration
			vulnsim.ProdDebian: 3.0,
			// Browsers.
			vulnsim.ProdIE8:     0.5,
			vulnsim.ProdIE10:    1.0,
			vulnsim.ProdChrome:  1.5,
			vulnsim.ProdFirefox: 1.5,
			// Databases.
			vulnsim.ProdMSSQL08:   0.5,
			vulnsim.ProdMSSQL14:   2.0,
			vulnsim.ProdMySQL55:   2.5,
			vulnsim.ProdMariaDB10: 2.5,
		},
	}
}

// CostTable is a library extension in the spirit of Borbor et al. (related
// work [17] of the paper): it sweeps the cost weight λ and reports, for each
// point of the diversity-versus-cost trade-off, the total deployment cost,
// the pairwise similarity cost and the d_bn diversity metric of the resulting
// optimal assignment on the ICS case study.
func CostTable(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	net, err := casestudy.Build()
	if err != nil {
		return nil, err
	}
	sim := casestudy.Similarity()
	model := caseStudyCostModel()
	inference := bayes.InferenceOptions{Samples: 80000, Seed: cfg.Seed}

	t := &Table{
		ID:      "cost",
		Title:   "Diversity vs deployment cost trade-off on the case study (extension)",
		Columns: []string{"cost weight λ", "deployment cost", "pairwise sim cost", "d_bn"},
	}
	weights := []float64{0, 0.02, 0.05, 0.1, 0.25, 1}
	var prevCost float64
	for i, w := range weights {
		opt, err := core.NewOptimizer(net, sim, core.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		if w > 0 {
			if err := opt.SetCostModel(model, w); err != nil {
				return nil, err
			}
		}
		res, err := opt.Optimize(context.Background())
		if err != nil {
			return nil, err
		}
		deployCost, err := model.TotalCost(net, res.Assignment)
		if err != nil {
			return nil, err
		}
		pairCost, err := core.PairwiseSimilarityCost(net, sim, res.Assignment)
		if err != nil {
			return nil, err
		}
		div, err := bayes.Diversity(net, res.Assignment, sim, caseStudyBayesConfig(), inference)
		if err != nil {
			return nil, err
		}
		t.AddRow(formatFloat(w, 2), formatFloat(deployCost, 1), formatFloat(pairCost, 3), formatFloat(div.Diversity, 5))
		if i > 0 && deployCost > prevCost+1e-6 {
			t.AddNote("warning: deployment cost increased when raising λ from %.2f", weights[i-1])
		}
		prevCost = deployCost
	}
	t.AddNote("cost model: legacy products cheapest, OS-family migrations most expensive (see internal/experiments/cost.go)")
	t.AddNote("expected shape: increasing λ lowers deployment cost and erodes diversity — the cost-constrained diversification trade-off of Borbor et al.")
	return t, nil
}

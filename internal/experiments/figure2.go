package experiments

import (
	"context"
	"fmt"

	"netdiversity/internal/netmodel"
	"netdiversity/internal/scenario"
	"netdiversity/internal/vulnsim"
)

// fig2Services and products of the running example of Section IV (Fig. 2):
// six hosts, a web-browser service and a database service, three candidate
// products each.
const (
	fig2SvcWB = netmodel.ServiceID("web_browser")
	fig2SvcDB = netmodel.ServiceID("database")
)

// Figure2Network builds the 6-host example network of Fig. 2.  Every host
// has its own subset of candidate products, as in the figure.
func Figure2Network() (*netmodel.Network, error) {
	wb := func(ids ...int) []netmodel.ProductID {
		out := make([]netmodel.ProductID, len(ids))
		for i, id := range ids {
			out[i] = netmodel.ProductID(fmt.Sprintf("wb%d", id))
		}
		return out
	}
	db := func(ids ...int) []netmodel.ProductID {
		out := make([]netmodel.ProductID, len(ids))
		for i, id := range ids {
			out[i] = netmodel.ProductID(fmt.Sprintf("db%d", id))
		}
		return out
	}
	type def struct {
		id  netmodel.HostID
		wbs []netmodel.ProductID
		dbs []netmodel.ProductID
	}
	defs := []def{
		{"h0", wb(1, 2, 3), db(1, 2, 3)},
		{"h1", nil, db(1, 2, 3)},
		{"h2", wb(1, 2, 3), nil},
		{"h3", wb(1, 2), db(2, 3)},
		{"h4", wb(2, 3), db(1, 2)},
		{"h5", wb(1, 2), db(1, 2, 3)},
	}
	n := netmodel.New()
	for _, d := range defs {
		h := &netmodel.Host{ID: d.id, Zone: "example", Choices: map[netmodel.ServiceID][]netmodel.ProductID{}}
		if d.wbs != nil {
			h.Services = append(h.Services, fig2SvcWB)
			h.Choices[fig2SvcWB] = d.wbs
		}
		if d.dbs != nil {
			h.Services = append(h.Services, fig2SvcDB)
			h.Choices[fig2SvcDB] = d.dbs
		}
		if err := n.AddHost(h); err != nil {
			return nil, err
		}
	}
	links := [][2]netmodel.HostID{
		{"h0", "h1"}, {"h0", "h2"}, {"h1", "h2"}, {"h1", "h3"},
		{"h2", "h4"}, {"h3", "h4"}, {"h3", "h5"}, {"h4", "h5"},
	}
	for _, l := range links {
		if err := n.AddLink(l[0], l[1]); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Figure2Similarity returns the similarity table of the example products:
// moderate similarity between neighbouring product versions, low otherwise.
func Figure2Similarity() *vulnsim.SimilarityTable {
	t := vulnsim.NewSimilarityTable([]string{"wb1", "wb2", "wb3", "db1", "db2", "db3"})
	for _, p := range t.Products() {
		_ = t.SetTotal(p, 100)
	}
	_ = t.Set("wb1", "wb2", 0.40, 40)
	_ = t.Set("wb1", "wb3", 0.10, 10)
	_ = t.Set("wb2", "wb3", 0.20, 20)
	_ = t.Set("db1", "db2", 0.35, 35)
	_ = t.Set("db1", "db3", 0.05, 5)
	_ = t.Set("db2", "db3", 0.25, 25)
	return t
}

// Figure2 computes the optimal assignment of the example network and renders
// it per host (the red circles of Fig. 2).  The optimisation runs through
// scenario.Exec, the same execution path the benchmark suites measure.
func Figure2(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	net, err := Figure2Network()
	if err != nil {
		return nil, err
	}
	sim := Figure2Similarity()
	res, err := scenario.Exec(context.Background(), net, sim, scenario.Cell{
		ID:            "fig2",
		Solver:        "trws",
		MaxIterations: 50,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "fig2",
		Title:   "Example network of Section IV with an optimal product assignment",
		Columns: []string{"host", "web_browser", "database"},
	}
	for _, hid := range net.Hosts() {
		wbP := string(res.Assignment.Product(hid, fig2SvcWB))
		dbP := string(res.Assignment.Product(hid, fig2SvcDB))
		if wbP == "" {
			wbP = "-"
		}
		if dbP == "" {
			dbP = "-"
		}
		t.AddRow(string(hid), wbP, dbP)
	}
	stats := res.Assignment.Stats(net)
	t.AddNote("optimisation energy %.4f, pairwise similarity cost %.4f", res.Energy, res.PairwiseCost)
	for _, svc := range []netmodel.ServiceID{fig2SvcWB, fig2SvcDB} {
		t.AddNote("service %s: %d distinct products, %d/%d links share the identical product",
			svc, stats.DistinctProducts[svc], stats.SameProductEdges[svc], stats.TotalSharedEdges[svc])
	}
	return t, nil
}

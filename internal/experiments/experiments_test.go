package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func quickConfig() Config {
	return Config{Seed: 42}
}

// cell parses a table cell as a float, stripping any bracketed suffix.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

// rowByLabel returns the first row whose first column matches the label.
func rowByLabel(t *testing.T, table *Table, label string) []string {
	t.Helper()
	for _, row := range table.Rows {
		if row[0] == label {
			return row
		}
	}
	t.Fatalf("table %s has no row labelled %q", table.ID, label)
	return nil
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	want := []string{
		"ablation", "adversary", "convergence", "cost", "fig1", "fig2", "fig4", "metrics",
		"table2", "table3", "table5", "table6", "table7", "table8", "table9", "topology",
	}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("IDs[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
	if _, err := Run("bogus", quickConfig()); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestFigure1ReproducesPaperNumbers(t *testing.T) {
	pA, err := Figure1Probability(Fig1SingleLabel)
	if err != nil {
		t.Fatal(err)
	}
	pB, err := Figure1Probability(Fig1SingleLabelSim)
	if err != nil {
		t.Fatal(err)
	}
	pC, err := Figure1Probability(Fig1MultiLabel)
	if err != nil {
		t.Fatal(err)
	}
	if pA > 1e-6 {
		t.Errorf("panel (a): P = %v, want ~0", pA)
	}
	if math.Abs(pB-0.125) > 1e-3 {
		t.Errorf("panel (b): P = %v, want ~0.125", pB)
	}
	if math.Abs(pC-0.5) > 1e-3 {
		t.Errorf("panel (c): P = %v, want ~0.5", pC)
	}
	if _, err := Figure1Probability(Figure1Variant(99)); err == nil {
		t.Error("unknown variant should fail")
	}
	table, err := Figure1(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Errorf("figure 1 table has %d rows, want 3", len(table.Rows))
	}
	if table.Render() == "" {
		t.Error("render should produce output")
	}
}

func TestSimilarityTablesRegenerate(t *testing.T) {
	for _, id := range []string{"table2", "table3"} {
		table, err := Run(id, quickConfig())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(table.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		for _, row := range table.Rows {
			pub := cell(t, row[2])
			rec := cell(t, row[3])
			if math.Abs(pub-rec) > 0.01 {
				t.Errorf("%s %s/%s: recomputed %.3f deviates from published %.3f", id, row[0], row[1], rec, pub)
			}
		}
	}
}

func TestFigure2Diversifies(t *testing.T) {
	table, err := Figure2(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 6 {
		t.Fatalf("figure 2 table has %d rows, want 6", len(table.Rows))
	}
	// The optimal assignment of the example should avoid identical products
	// on every link (reported in the notes as "0/5 links").
	joined := strings.Join(table.Notes, "\n")
	if !strings.Contains(joined, "0/5 links share the identical product") {
		t.Errorf("expected perfectly diversified example, notes: %s", joined)
	}
}

func TestCaseStudyAssignments(t *testing.T) {
	cs, err := BuildCaseStudy(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every assignment must be complete and valid.
	for name, a := range cs.byName() {
		if err := a.ValidateFor(cs.Network); err != nil {
			t.Errorf("%s assignment invalid: %v", name, err)
		}
	}
	// The unconstrained optimum must have the lowest Eq. 1 energy, the
	// homogeneous assignment the highest.
	if cs.Energies["optimal"] > cs.Energies["host_constr"]+1e-9 {
		t.Errorf("optimal energy %v should not exceed the host-constrained energy %v",
			cs.Energies["optimal"], cs.Energies["host_constr"])
	}
	if cs.Energies["optimal"] > cs.Energies["random"] {
		t.Errorf("optimal energy %v should beat random %v", cs.Energies["optimal"], cs.Energies["random"])
	}
	if cs.Energies["mono"] < cs.Energies["random"] {
		t.Errorf("mono energy %v should be the worst (random %v)", cs.Energies["mono"], cs.Energies["random"])
	}
}

func TestTableVOrdering(t *testing.T) {
	table, err := TableV(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5 {
		t.Fatalf("table V has %d rows, want 5", len(table.Rows))
	}
	dbn := make(map[string]float64)
	for _, row := range table.Rows {
		dbn[row[1]] = cell(t, row[4])
	}
	if !(dbn["optimal assignment"] > dbn["host constraints"]) {
		t.Errorf("d_bn(optimal)=%v should exceed d_bn(C1)=%v", dbn["optimal assignment"], dbn["host constraints"])
	}
	if !(dbn["host constraints"] >= dbn["product constraints"]-1e-6) {
		t.Errorf("d_bn(C1)=%v should be at least d_bn(C2)=%v", dbn["host constraints"], dbn["product constraints"])
	}
	if !(dbn["product constraints"] > dbn["mono assignment"]) {
		t.Errorf("d_bn(C2)=%v should exceed d_bn(mono)=%v", dbn["product constraints"], dbn["mono assignment"])
	}
	if !(dbn["random assignment"] > dbn["mono assignment"]) {
		t.Errorf("d_bn(random)=%v should exceed d_bn(mono)=%v", dbn["random assignment"], dbn["mono assignment"])
	}
	for name, v := range dbn {
		if v <= 0 || v > 1 {
			t.Errorf("d_bn(%s) = %v outside (0,1]", name, v)
		}
	}
}

func TestTableVIOrdering(t *testing.T) {
	table, err := TableVI(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("table VI has %d rows, want 4", len(table.Rows))
	}
	optimal := rowByLabel(t, table, "α̂")
	mono := rowByLabel(t, table, "α_m")
	for col := 1; col < len(table.Columns); col++ {
		o := cell(t, optimal[col])
		m := cell(t, mono[col])
		if o < m-1e-9 {
			t.Errorf("%s: optimal MTTC %v should not be below mono %v", table.Columns[col], o, m)
		}
	}
	// From the corporate entry points the optimal assignment should be
	// strictly more resilient than the homogeneous one.
	for _, col := range []int{1, 2} {
		if cell(t, optimal[col]) <= cell(t, mono[col]) {
			t.Errorf("%s: optimal MTTC should strictly exceed mono", table.Columns[col])
		}
	}
}

func TestScalabilityTables(t *testing.T) {
	for _, id := range []string{"table7", "table8", "table9"} {
		table, err := Run(id, quickConfig())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(table.Rows) != 2 {
			t.Fatalf("%s has %d rows, want 2 profiles", id, len(table.Rows))
		}
		for _, row := range table.Rows {
			for col := 3; col < len(row); col++ {
				v := cell(t, row[col])
				if v < 0 {
					t.Errorf("%s: negative runtime %v", id, v)
				}
				if v > 60 {
					t.Errorf("%s: quick-profile runtime %v unexpectedly large", id, v)
				}
			}
		}
	}
}

func TestAblationShape(t *testing.T) {
	table, err := Ablation(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	energies := make(map[string]float64)
	for _, row := range table.Rows {
		energies[row[0]] = cell(t, row[1])
	}
	if energies["trws + local polish"] >= energies["random"] {
		t.Errorf("polished TRW-S energy %v should beat random %v",
			energies["trws + local polish"], energies["random"])
	}
	if energies["trws + local polish"] >= energies["mono"] {
		t.Errorf("polished TRW-S energy %v should beat mono %v",
			energies["trws + local polish"], energies["mono"])
	}
	if energies["mono"] < energies["greedy-coloring"] {
		t.Errorf("mono energy %v should be the worst (greedy %v)", energies["mono"], energies["greedy-coloring"])
	}
}

func TestFigure4ConstraintsRespected(t *testing.T) {
	table, err := Figure4(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 29 {
		t.Fatalf("figure 4 table has %d rows, want 29 hosts", len(table.Rows))
	}
	// The host-constrained solution must contain the pinned products of C1.
	byHost := make(map[string][]string)
	for _, row := range table.Rows {
		byHost[row[0]] = row
	}
	if !strings.Contains(byHost["z4"][3], "win7") || !strings.Contains(byHost["z4"][3], "mssql14") {
		t.Errorf("z4 host-constrained assignment %q should pin win7 + mssql14", byHost["z4"][3])
	}
	if !strings.Contains(byHost["v1"][3], "ie8") {
		t.Errorf("v1 host-constrained assignment %q should pin ie8", byHost["v1"][3])
	}
	// The product-constrained solution must not pair a Linux OS with IE.
	for host, row := range byHost {
		assignment := row[4]
		if (strings.Contains(assignment, "ubt1404") || strings.Contains(assignment, "deb80")) &&
			strings.Contains(assignment, "ie") {
			t.Errorf("host %s pairs Linux with Internet Explorer under C2: %q", host, assignment)
		}
	}
}

func TestMetricsTableOrdering(t *testing.T) {
	table, err := MetricsTable(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5 {
		t.Fatalf("metrics table has %d rows, want 5", len(table.Rows))
	}
	richness := make(map[string]float64)
	avgEffort := make(map[string]float64)
	for _, row := range table.Rows {
		richness[row[1]] = cell(t, row[2])
		avgEffort[row[1]] = cell(t, row[4])
	}
	if richness["optimal assignment"] <= richness["mono assignment"] {
		t.Errorf("optimal d1 %v should exceed mono %v",
			richness["optimal assignment"], richness["mono assignment"])
	}
	if avgEffort["optimal assignment"] < avgEffort["mono assignment"] {
		t.Errorf("optimal d3 %v should be at least mono %v",
			avgEffort["optimal assignment"], avgEffort["mono assignment"])
	}
}

func TestAdversaryTableShape(t *testing.T) {
	table, err := AdversaryTable(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("adversary table has %d rows, want 3", len(table.Rows))
	}
	optimal := rowByLabel(t, table, "α̂")
	mono := rowByLabel(t, table, "α_m")
	// The full-knowledge attacker (last column) is at least as fast as the
	// blind attacker (first data column) on every assignment.
	for _, row := range [][]string{optimal, mono} {
		if cell(t, row[3]) > cell(t, row[1])+1e-9 {
			t.Errorf("full-knowledge MTTC %v should not exceed blind MTTC %v", cell(t, row[3]), cell(t, row[1]))
		}
	}
	// Diversification should help against the reconnaissance attacker.
	if cell(t, optimal[3]) <= cell(t, mono[3]) {
		t.Errorf("optimal MTTC %v should exceed mono %v against the full-knowledge attacker",
			cell(t, optimal[3]), cell(t, mono[3]))
	}
}

func TestTopologyTableShape(t *testing.T) {
	table, err := TopologyTable(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("topology table has %d rows, want 3", len(table.Rows))
	}
	for _, row := range table.Rows {
		optCost := cell(t, row[5])
		greedyCost := cell(t, row[6])
		monoCost := cell(t, row[7])
		if optCost > greedyCost {
			t.Errorf("%s: optimal cost %v should not exceed greedy %v", row[0], optCost, greedyCost)
		}
		if optCost >= monoCost {
			t.Errorf("%s: optimal cost %v should beat mono %v", row[0], optCost, monoCost)
		}
	}
}

func TestConvergenceTableShape(t *testing.T) {
	table, err := ConvergenceTable(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) == 0 {
		t.Fatal("convergence table has no rows")
	}
	// The TRW-S trace is monotonically non-increasing (best energy so far).
	prev := cell(t, table.Rows[0][1])
	for _, row := range table.Rows[1:] {
		if row[1] == "" {
			break
		}
		cur := cell(t, row[1])
		if cur > prev+1e-9 {
			t.Errorf("TRW-S best-energy trace increased: %v -> %v", prev, cur)
		}
		prev = cur
	}
}

func TestCostTableParetoShape(t *testing.T) {
	table, err := CostTable(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) < 4 {
		t.Fatalf("cost table has %d rows, want at least 4 sweep points", len(table.Rows))
	}
	firstCost := cell(t, table.Rows[0][1])
	lastCost := cell(t, table.Rows[len(table.Rows)-1][1])
	firstDiv := cell(t, table.Rows[0][3])
	lastDiv := cell(t, table.Rows[len(table.Rows)-1][3])
	if lastCost >= firstCost {
		t.Errorf("heaviest cost weight should reduce deployment cost: %v vs %v", lastCost, firstCost)
	}
	if lastDiv > firstDiv {
		t.Errorf("heaviest cost weight should not increase diversity: %v vs %v", lastDiv, firstDiv)
	}
}

func TestTableRendering(t *testing.T) {
	table := &Table{ID: "x", Title: "demo", Columns: []string{"a", "bbbb"}}
	table.AddRow("1", "2")
	table.AddNote("note %d", 7)
	out := table.Render()
	for _, want := range []string{"== x — demo ==", "bbbb", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

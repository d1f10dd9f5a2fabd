package experiments

import (
	"fmt"
	"sort"
)

// Runner regenerates one paper artefact.
type Runner func(Config) (*Table, error)

// registry maps experiment IDs to runners: the paper's artefacts under
// their numbering, then the library's own experiments.  README's
// "Experiments" section records which is which.
func registry() map[string]Runner {
	return map[string]Runner{
		"fig1":   Figure1,
		"fig2":   Figure2,
		"fig4":   Figure4,
		"table2": TableII,
		"table3": TableIII,
		"table5": TableV,
		"table6": TableVI,
		"table7": TableVII,
		"table8": TableVIII,
		"table9": TableIX,
		// The library's own experiments, beyond the paper's artefacts.
		"ablation":    Ablation,
		"metrics":     MetricsTable,
		"adversary":   AdversaryTable,
		"topology":    TopologyTable,
		"convergence": ConvergenceTable,
		"cost":        CostTable,
	}
}

// IDs returns every experiment identifier, sorted.
func IDs() []string {
	reg := registry()
	out := make([]string, 0, len(reg))
	for id := range reg {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given ID.
func Run(id string, cfg Config) (*Table, error) {
	r, ok := registry()[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return r(cfg)
}

// RunAll executes every experiment in a deterministic order and returns the
// tables.  It stops at the first failure.
func RunAll(cfg Config) ([]*Table, error) {
	var out []*Table
	for _, id := range IDs() {
		t, err := Run(id, cfg)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, t)
	}
	return out, nil
}

package experiments

import (
	"context"
	"fmt"

	"netdiversity/internal/scenario"
)

// scalabilityMatrix describes one scalability sweep as a scenario matrix:
// uniform topology, TRW-S, no attack model — exactly the measurement the
// paper's Tables VII-IX report, but executed through the shared scenario
// pipeline rather than a private loop.
func scalabilityMatrix(cfg Config, name string, hosts, degrees, services []int) scenario.Matrix {
	iters := 20
	if cfg.Full {
		iters = 50
	}
	return scenario.Matrix{
		Name:          name,
		Topologies:    []string{scenario.TopoUniform},
		Hosts:         hosts,
		Degrees:       degrees,
		Services:      services,
		Solvers:       []string{"trws"},
		Attacks:       []string{"none"},
		MaxIterations: iters,
		Seed:          cfg.Seed,
		// Workers is left at its default pool of 1: cells run serially so
		// the per-cell wall-clock stays contention-free.
	}
}

// runSweep executes a scalability matrix and indexes the measurements by
// (hosts, degree, services).  Any failed cell aborts the experiment.
func runSweep(cfg Config, name string, hosts, degrees, services []int) (map[[3]int]scenario.Measurement, error) {
	rep, err := scenario.Run(context.Background(), scalabilityMatrix(cfg, name, hosts, degrees, services))
	if err != nil {
		return nil, err
	}
	out := make(map[[3]int]scenario.Measurement, len(rep.Cells))
	for _, c := range rep.Cells {
		if c.Error != "" {
			return nil, fmt.Errorf("experiments: cell %s: %s", c.ID, c.Error)
		}
		out[[3]int{c.Hosts, c.Degree, c.Services}] = c
	}
	return out, nil
}

// TableVII regenerates the "computational time over number of hosts" sweep
// (Table VII): a mid-density and a high-density profile over increasing host
// counts.
func TableVII(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	hostCounts := []int{100, 200, 400}
	profiles := []struct {
		name     string
		degree   int
		services int
	}{
		{"mid-density", 8, 4},
		{"high-density", 16, 6},
	}
	if cfg.Full {
		hostCounts = []int{100, 200, 400, 600, 800, 1000, 2000, 4000, 6000}
		profiles[0].degree, profiles[0].services = 20, 15
		profiles[1].degree, profiles[1].services = 40, 25
	}

	t := &Table{
		ID:      "table7",
		Title:   "Computational time (seconds) for networks of various densities over #hosts",
		Columns: append([]string{"profile", "#deg", "#serv"}, intColumns(hostCounts)...),
	}
	for _, p := range profiles {
		sweep, err := runSweep(cfg, "table7", hostCounts, []int{p.degree}, []int{p.services})
		if err != nil {
			return nil, err
		}
		cells := []string{p.name, fmt.Sprint(p.degree), fmt.Sprint(p.services)}
		for _, hosts := range hostCounts {
			m, ok := sweep[[3]int{hosts, p.degree, p.services}]
			if !ok {
				return nil, fmt.Errorf("experiments: table7 sweep missing cell %d/%d/%d", hosts, p.degree, p.services)
			}
			cells = append(cells, formatSeconds(m.WallMS/1000))
		}
		t.AddRow(cells...)
	}
	addScalabilityNotes(t, cfg)
	return t, nil
}

// TableVIII regenerates the "computational time over degree" sweep
// (Table VIII) for a mid-scale and a large-scale network.
func TableVIII(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	degrees := []int{4, 8, 12, 16}
	profiles := []struct {
		name     string
		hosts    int
		services int
	}{
		{"mid-scale", 200, 4},
		{"large-scale", 600, 5},
	}
	if cfg.Full {
		degrees = []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}
		profiles[0].hosts, profiles[0].services = 1000, 15
		profiles[1].hosts, profiles[1].services = 6000, 25
	}

	t := &Table{
		ID:      "table8",
		Title:   "Computational time (seconds) for various network sizes over #degree",
		Columns: append([]string{"profile", "#hosts", "#serv"}, intColumns(degrees)...),
	}
	for _, p := range profiles {
		sweep, err := runSweep(cfg, "table8", []int{p.hosts}, degrees, []int{p.services})
		if err != nil {
			return nil, err
		}
		cells := []string{p.name, fmt.Sprint(p.hosts), fmt.Sprint(p.services)}
		for _, deg := range degrees {
			m, ok := sweep[[3]int{p.hosts, deg, p.services}]
			if !ok {
				return nil, fmt.Errorf("experiments: table8 sweep missing cell %d/%d/%d", p.hosts, deg, p.services)
			}
			cells = append(cells, formatSeconds(m.WallMS/1000))
		}
		t.AddRow(cells...)
	}
	addScalabilityNotes(t, cfg)
	return t, nil
}

// TableIX regenerates the "computational time over number of services" sweep
// (Table IX).
func TableIX(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	services := []int{2, 4, 6, 8}
	profiles := []struct {
		name   string
		hosts  int
		degree int
	}{
		{"mid-scale", 200, 8},
		{"large-scale", 600, 12},
	}
	if cfg.Full {
		services = []int{5, 10, 15, 20, 25, 30}
		profiles[0].hosts, profiles[0].degree = 1000, 20
		profiles[1].hosts, profiles[1].degree = 6000, 40
	}

	t := &Table{
		ID:      "table9",
		Title:   "Computational time (seconds) for various network sizes over #services",
		Columns: append([]string{"profile", "#hosts", "#deg"}, intColumns(services)...),
	}
	for _, p := range profiles {
		sweep, err := runSweep(cfg, "table9", []int{p.hosts}, []int{p.degree}, services)
		if err != nil {
			return nil, err
		}
		cells := []string{p.name, fmt.Sprint(p.hosts), fmt.Sprint(p.degree)}
		for _, svc := range services {
			m, ok := sweep[[3]int{p.hosts, p.degree, svc}]
			if !ok {
				return nil, fmt.Errorf("experiments: table9 sweep missing cell %d/%d/%d", p.hosts, p.degree, svc)
			}
			cells = append(cells, formatSeconds(m.WallMS/1000))
		}
		t.AddRow(cells...)
	}
	addScalabilityNotes(t, cfg)
	return t, nil
}

func addScalabilityNotes(t *Table, cfg Config) {
	if cfg.Full {
		t.AddNote("full (paper-sized) sweep; expect seconds to minutes per cell depending on hardware")
	} else {
		t.AddNote("quick profile with reduced hosts/degrees/services; run with -full for the paper-sized sweep")
	}
	t.AddNote("executed through the internal/scenario matrix (uniform topology, trws); cmd/divbench tracks the same cells over time")
	t.AddNote("expected shape: time grows roughly linearly with hosts, edges and services, as in Tables VII-IX")
}

func intColumns(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprint(x)
	}
	return out
}

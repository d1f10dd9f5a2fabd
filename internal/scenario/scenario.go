// Package scenario is the experiment-sweep subsystem of the library: it
// declaratively describes a run matrix — topology family × network size ×
// solver × attack model × churn stream — expands it into deterministic
// cells, executes every cell through the shared optimisation pipeline (with
// per-cell seeds, timeouts and warm-start control) and collects comparable
// measurements: objective energy, pairwise similarity cost, wall-clock time,
// allocations, an MTTC estimate and diversity metrics.  Churn cells
// additionally replay a delta stream through the incremental
// re-optimisation engine, and slam cells put an in-process divd daemon under
// concurrent multi-tenant load (internal/slam).  docs/BENCH_SCHEMA.md
// documents every recorded field.
//
// The package serves two callers with one execution path: the paper
// experiments in internal/experiments build their figure/table sweeps on
// Exec/Run, and cmd/divbench turns named suites into machine-readable
// BENCH_<suite>.json reports whose work counters Compare gates against a
// checked-in baseline on any machine.
package scenario

import (
	"fmt"
	"hash/fnv"
	"time"

	"netdiversity/internal/netgen"
	"netdiversity/internal/netmodel"
	"netdiversity/internal/solve"
	"netdiversity/internal/vulnsim"
)

// Topology names accepted by a Matrix.  The first three map onto
// netgen.Generate; "zoned" builds a four-zone ICS-style layout with the same
// synthetic service/product catalogue so that every topology shares one
// similarity table.
const (
	TopoUniform    = "uniform"
	TopoZoned      = "zoned"
	TopoScaleFree  = "scale-free"
	TopoSmallWorld = "small-world"
)

// Topologies lists the supported topology names in canonical order.
func Topologies() []string {
	return []string{TopoUniform, TopoZoned, TopoScaleFree, TopoSmallWorld}
}

// Matrix declaratively describes a sweep: the cross product of every axis
// slice.  The zero value of an axis falls back to a single default so that a
// Matrix can sweep one dimension without spelling out the others.
type Matrix struct {
	// Name identifies the suite in reports ("quick", "full", "table7", ...).
	Name string
	// Topologies is the topology-family axis.  Default {uniform}.
	Topologies []string
	// Hosts is the network-size axis.  Default {200}.
	Hosts []int
	// Degrees is the target-average-degree axis.  Default {8}.
	Degrees []int
	// Services is the services-per-host axis.  Default {3}.
	Services []int
	// ProductsPerService is the per-service catalogue size.  Default 4.
	ProductsPerService int
	// Solvers is the solver axis; every name must be registered with the
	// solve registry.  Default {trws}.
	Solvers []string
	// Attacks is the attack-model axis (see ParseAttack).  Default {none}.
	Attacks []string
	// Churns is the churn axis (see ParseChurn): each non-"none" value
	// replays a deterministic delta stream through the incremental
	// re-optimisation engine after the initial solve and measures
	// incremental-vs-full re-solve cost, energy gap and assignment
	// stability.  Default {none}.
	Churns []string
	// MaxIterations bounds the solver iterations per cell.  Default 20.
	MaxIterations int
	// Seed is the base seed; every cell derives its own seed from it and the
	// cell ID, so expansion is deterministic and order-independent.
	Seed int64
	// Timeout bounds one cell execution (solve + attack evaluation).
	// Zero means no per-cell timeout.
	Timeout time.Duration
	// Workers sizes the worker pool that executes cells concurrently.
	// Default 1 (cells run serially, which keeps the allocation and
	// wall-clock measurements precise).
	Workers int
	// Parts > 1 routes every cell through the partitioned parallel pipeline
	// (core.OptimizeParallel) with that many blocks.
	Parts int
	// SlamProfiles switches on the slam phase and is its load-shape axis:
	// every cell expands into one closed-loop multi-tenant load run
	// (internal/slam) per named profile, after the regular phases — p99 under
	// contention, error accounting and allocation per request, the
	// scheduler, writer-slot and admission behaviour no sequential benchmark
	// can see.  The shapes are fixed (see slamShapes) so a slam cell is the
	// same work on every machine and across suite edits.  Default: no slam
	// phase.
	SlamProfiles []string
	// AttackRuns is the Monte-Carlo run count for the adversary-knowledge
	// attack models.  Default 50 (the analytic models ignore it).
	AttackRuns int
	// Repeats re-runs the solve of each cell and keeps the minimum
	// wall-clock (the solvers are deterministic, so every other measurement
	// is identical across repeats).  Default 1.
	Repeats int
	// GraphDirect routes every cell through the streaming CSR-direct path:
	// netgen.UniformGraph emits the diversification MRF without building a
	// netmodel.Network and the solver runs on it directly, skipping the
	// assignment decode and the attack/churn/slam phases.  This is the only
	// path that reaches 10^5–10^6 hosts; it is restricted to the uniform
	// topology with no attack, churn or slam axes.
	GraphDirect bool
}

func (m Matrix) withDefaults() Matrix {
	if len(m.Topologies) == 0 {
		m.Topologies = []string{TopoUniform}
	}
	if len(m.Hosts) == 0 {
		m.Hosts = []int{200}
	}
	if len(m.Degrees) == 0 {
		m.Degrees = []int{8}
	}
	if len(m.Services) == 0 {
		m.Services = []int{3}
	}
	if m.ProductsPerService <= 0 {
		m.ProductsPerService = 4
	}
	if len(m.Solvers) == 0 {
		m.Solvers = []string{"trws"}
	}
	if len(m.Attacks) == 0 {
		m.Attacks = []string{AttackNone.String()}
	}
	if len(m.Churns) == 0 {
		m.Churns = []string{"none"}
	}
	if m.MaxIterations <= 0 {
		m.MaxIterations = 20
	}
	if m.Seed == 0 {
		m.Seed = 42
	}
	if m.Workers <= 0 {
		m.Workers = 1
	}
	if m.AttackRuns <= 0 {
		m.AttackRuns = 50
	}
	if m.Repeats <= 0 {
		m.Repeats = 1
	}
	return m
}

// Cell is one fully-specified run of the matrix.
type Cell struct {
	// Index is the cell's position in expansion order.
	Index int
	// ID is the stable cell identifier used to match cells across reports:
	// topology/h<hosts>/d<degree>/s<services>/<solver>/<attack>.
	ID string
	// Topology, Hosts, Degree, Services, ProductsPerService describe the
	// generated network.
	Topology           string
	Hosts              int
	Degree             int
	Services           int
	ProductsPerService int
	// Solver and Attack select the algorithm and the attack model.
	Solver string
	Attack Attack
	// Churn selects the delta stream replayed after the initial solve (the
	// zero value / "none" disables churn).
	Churn ChurnSpec
	// Seed is the cell's derived seed; it drives the solver and the attack
	// and slam randomness.
	Seed int64
	// GraphSeed is the instance seed, derived from the structural axes only
	// (topology/hosts/degree/services).  Cells that differ only in solver,
	// attack, churn or slam profile share it, so they solve the identical
	// instance and cross-cell comparisons compare like with like.
	GraphSeed int64
	// MaxIterations, Parts, AttackRuns, Repeats and Timeout are inherited
	// from the matrix.
	MaxIterations int
	Parts         int
	AttackRuns    int
	Repeats       int
	Timeout       time.Duration
	// SlamProfile names the slam load shape run after the regular phases
	// (empty: no slam phase).  The base profile keeps the plain cell ID;
	// every other profile suffixes it with /slam-<profile>.
	SlamProfile string
	// DisablePolish skips the local ICM refinement after solving; not a
	// matrix axis, but callers building cells directly (the solver ablation,
	// the convergence trace) use it to measure the raw decoding.
	DisablePolish bool
	// GraphDirect runs the cell on a streamed MRF (netgen.UniformGraph)
	// without a netmodel.Network: no assignment decode, no attack, churn or
	// slam phase (inherited from Matrix.GraphDirect).
	GraphDirect bool
}

// cellID renders the stable identifier of a cell.  Churn-free cells keep the
// historical six-segment form so baselines recorded before the churn axis
// existed still match.
func cellID(topology string, hosts, degree, services int, solver, attack, churn string) string {
	id := fmt.Sprintf("%s/h%d/d%d/s%d/%s/%s", topology, hosts, degree, services, solver, attack)
	if churn != "" && churn != "none" {
		id += "/" + churn
	}
	return id
}

// cellSeed derives a per-cell seed from the base seed and the cell ID, so
// that adding or removing axis values never shifts the seeds of the
// remaining cells.
func cellSeed(base int64, id string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return base ^ int64(h.Sum64()&0x7fffffffffffffff)
}

// Expand validates the matrix and returns its cells in deterministic order
// (topology-major, attack-minor, following the axis slice order).
func Expand(m Matrix) ([]Cell, error) {
	m = m.withDefaults()
	known := make(map[string]bool, 4)
	for _, t := range Topologies() {
		known[t] = true
	}
	for _, t := range m.Topologies {
		if !known[t] {
			return nil, fmt.Errorf("scenario: unknown topology %q (known: %v)", t, Topologies())
		}
	}
	for _, h := range m.Hosts {
		if h < 2 {
			return nil, fmt.Errorf("scenario: need at least 2 hosts, got %d", h)
		}
	}
	for _, s := range m.Solvers {
		if !solve.Registered(s) {
			return nil, fmt.Errorf("scenario: unknown solver %q (registered: %v)", s, solve.Names())
		}
	}
	attacks := make([]Attack, len(m.Attacks))
	for i, a := range m.Attacks {
		parsed, err := ParseAttack(a)
		if err != nil {
			return nil, err
		}
		attacks[i] = parsed
	}
	churns := make([]ChurnSpec, len(m.Churns))
	for i, c := range m.Churns {
		parsed, err := ParseChurn(c)
		if err != nil {
			return nil, err
		}
		churns[i] = parsed
	}
	if m.GraphDirect {
		// The streamed path has no netmodel.Network, so every phase that
		// needs one is off the table.
		for _, t := range m.Topologies {
			if t != TopoUniform {
				return nil, fmt.Errorf("scenario: graph-direct matrices support only the %s topology, got %q", TopoUniform, t)
			}
		}
		for _, a := range attacks {
			if a != AttackNone {
				return nil, fmt.Errorf("scenario: graph-direct matrices cannot evaluate attacks (got %q)", a)
			}
		}
		for _, c := range churns {
			if !c.None() {
				return nil, fmt.Errorf("scenario: graph-direct matrices cannot replay churn (got %q)", c)
			}
		}
		if len(m.SlamProfiles) > 0 {
			return nil, fmt.Errorf("scenario: graph-direct matrices cannot run the slam phase")
		}
		if m.Parts > 1 {
			return nil, fmt.Errorf("scenario: graph-direct matrices cannot use the partitioned pipeline")
		}
	}

	for _, p := range m.SlamProfiles {
		if _, err := slamShapeOf(p); err != nil {
			return nil, err
		}
	}
	profiles := m.SlamProfiles
	if len(profiles) == 0 {
		profiles = []string{""} // no slam phase
	}

	var cells []Cell
	for _, topo := range m.Topologies {
		for _, hosts := range m.Hosts {
			for _, degree := range m.Degrees {
				for _, services := range m.Services {
					for _, solver := range m.Solvers {
						for _, attack := range attacks {
							for _, churn := range churns {
								for _, profile := range profiles {
									id := cellID(topo, hosts, degree, services, solver, attack.String(), churn.String())
									if profile != "" && profile != SlamProfileBase {
										id += "/slam-" + profile
									}
									instance := fmt.Sprintf("%s/h%d/d%d/s%d", topo, hosts, degree, services)
									cells = append(cells, Cell{
										Index:              len(cells),
										ID:                 id,
										Topology:           topo,
										Hosts:              hosts,
										Degree:             degree,
										Services:           services,
										ProductsPerService: m.ProductsPerService,
										Solver:             solver,
										Attack:             attack,
										Churn:              churn,
										Seed:               cellSeed(m.Seed, id),
										GraphSeed:          cellSeed(m.Seed, instance),
										MaxIterations:      m.MaxIterations,
										Parts:              m.Parts,
										SlamProfile:        profile,
										AttackRuns:         m.AttackRuns,
										Repeats:            m.Repeats,
										Timeout:            m.Timeout,
										GraphDirect:        m.GraphDirect,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// instanceSeed is the seed every input of the cell's instance derives from:
// the network, its similarity table, the churn stream and the graph-direct
// MRF.  Hand-built cells that never went through Expand fall back to the
// cell seed.
func (c Cell) instanceSeed() int64 {
	if c.GraphSeed != 0 {
		return c.GraphSeed
	}
	return c.Seed
}

// instanceConfig is the generator configuration of the cell's instance.
func (c Cell) instanceConfig() netgen.RandomConfig {
	return netgen.RandomConfig{
		Hosts:              c.Hosts,
		Degree:             c.Degree,
		Services:           c.Services,
		ProductsPerService: c.ProductsPerService,
		Seed:               c.instanceSeed(),
	}
}

// BuildNetwork generates the network and similarity table of one cell.  The
// construction depends only on the cell's structural fields and instance
// seed, so callers (tests, the experiment tables) can rebuild the exact
// instance a measurement came from.
func BuildNetwork(c Cell) (*netmodel.Network, *vulnsim.SimilarityTable, error) {
	genCfg := c.instanceConfig()
	sim := netgen.SyntheticSimilarity(genCfg, 0.6)
	var (
		net *netmodel.Network
		err error
	)
	switch c.Topology {
	case TopoUniform, "":
		net, err = netgen.Generate(genCfg, netgen.TopologyUniform)
	case TopoScaleFree:
		net, err = netgen.Generate(genCfg, netgen.TopologyScaleFree)
	case TopoSmallWorld:
		net, err = netgen.Generate(genCfg, netgen.TopologySmallWorld)
	case TopoZoned:
		net, err = zonedNetwork(genCfg)
	default:
		return nil, nil, fmt.Errorf("scenario: unknown topology %q", c.Topology)
	}
	if err != nil {
		return nil, nil, err
	}
	return net, sim, nil
}

// zonedNetwork builds a four-zone ICS-style layout (corporate → dmz →
// operations → control) over the synthetic service/product catalogue, so
// that zoned cells share the similarity table of the other topologies.
func zonedNetwork(cfg netgen.RandomConfig) (*netmodel.Network, error) {
	services := make([]netmodel.ServiceID, cfg.Services)
	choices := make(map[netmodel.ServiceID][]netmodel.ProductID, cfg.Services)
	for s := 0; s < cfg.Services; s++ {
		services[s] = netgen.ServiceName(s)
		ps := make([]netmodel.ProductID, cfg.ProductsPerService)
		for p := 0; p < cfg.ProductsPerService; p++ {
			ps[p] = netgen.ProductName(s, p)
		}
		choices[services[s]] = ps
	}
	names := []string{"corporate", "dmz", "operations", "control"}
	zones := len(names)
	if cfg.Hosts < 2*zones {
		zones = cfg.Hosts / 2
		if zones < 1 {
			zones = 1
		}
	}
	specs := make([]netgen.ZoneSpec, zones)
	base, extra := cfg.Hosts/zones, cfg.Hosts%zones
	for i := range specs {
		specs[i] = netgen.ZoneSpec{Name: names[i], Hosts: base}
		if i < extra {
			specs[i].Hosts++
		}
	}
	bridges := cfg.Degree / 2
	if bridges < 2 {
		bridges = 2
	}
	return netgen.Zoned(netgen.ZonedConfig{
		Zones:       specs,
		BridgeLinks: bridges,
		Services:    services,
		Choices:     choices,
		Seed:        cfg.Seed,
	})
}

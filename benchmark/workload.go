package main

// opKind names one operation class of the load mix.
type opKind int

const (
	opRead opKind = iota
	opDelta
	opMetrics
	opAssess
	opCreate
	numOps
)

// workload is one traffic mix against one deployment shape.  Everything a
// run does is a function of (workload, seed): the workload fixes the tenant
// topologies and the op order, the seed every delta body.
type workload struct {
	name string
	// why is the one-line rationale copied into BENCHMARK.json.
	why string
	// tenants long-lived sessions of hosts hosts each (uniform random
	// topology, degree 8, 3 services, 4 products per service).
	tenants, hosts int
	solver         string
	// durable runs the primary with a WAL under fsync=always and attaches a
	// follower that serves the read and metrics ops.
	durable bool
	// structural makes a delta 1-4 topology-changing ops (host leave, host
	// join wired to 8 neighbours, link add, link remove, service upgrade);
	// otherwise a delta is a one-host preference nudge.
	structural bool
	// cycle is the op count of each kind in one schedule cycle.  The
	// measured phase executes whole cycles only, so every round has exactly
	// this mix.
	cycle [numOps]int
	// warmOps ops of the stream run untimed at the end of set-up.
	warmOps int
}

func (w workload) cycleLen() int {
	n := 0
	for _, c := range w.cycle {
		n += c
	}
	return n
}

// workloads is the checked-in benchmark matrix.  The four rows use the same
// five endpoints in opposite ways, so a gain on one row that taxes another
// shows up as a loss there (see README.md for the layer each row stresses).
var workloads = []workload{
	{
		name:    "steady_small",
		why:     "16x50-host tenants, nudge deltas, 70% reads: serve hot path, validation and loopback HTTP dominate; solver work per op is tiny",
		tenants: 16, hosts: 50, solver: "trws",
		cycle:   [numOps]int{opRead: 70, opDelta: 20, opMetrics: 4, opAssess: 4, opCreate: 2},
		warmOps: 200,
	},
	{
		name:    "churn_large",
		why:     "2x2000-host tenants, structural deltas, most reads fresh: ApplyDeltaBatch, warm trws, Snapshot and the encode miss path dominate",
		tenants: 2, hosts: 2000, solver: "trws", structural: true,
		cycle:   [numOps]int{opRead: 10, opDelta: 10, opMetrics: 1, opAssess: 2, opCreate: 1},
		warmOps: 24,
	},
	{
		name:    "durable_replica",
		why:     "8x200-host tenants on a WAL with fsync=always plus a follower serving reads: the only row where wal and replic do work",
		tenants: 8, hosts: 200, solver: "trws", durable: true,
		cycle:   [numOps]int{opRead: 22, opDelta: 22, opMetrics: 2, opAssess: 2, opCreate: 2},
		warmOps: 100,
	},
	{
		name:    "cold_large",
		why:     "1x6000-host tenant (18k MRF nodes) on the multilevel solver, two cold creates and three deltas per cycle: multilevel/coarsen and cold trws dominate, serve does almost nothing",
		tenants: 1, hosts: 6000, solver: "multilevel",
		cycle:   [numOps]int{opRead: 192, opDelta: 3, opMetrics: 1, opAssess: 3, opCreate: 2},
		warmOps: 3,
	},
}

// shrunk is the -smoke variant: the same stack, mix and gates on tenants a
// twentieth the size, so all four workloads run in a few seconds.
func (w workload) shrunk() workload {
	w.hosts = max(20, w.hosts/20)
	w.warmOps = min(w.warmOps, w.cycleLen())
	return w
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

package scenario

import (
	"context"
	"fmt"

	"netdiversity/internal/slam"
)

// The named slam load shapes (Matrix.SlamProfiles).
const (
	SlamProfileBase      = "base"
	SlamProfileContended = "contended"
	SlamProfileReplica   = "replica"
)

// slamShape is one fixed slam load shape.
type slamShape struct {
	tenants, workers, ops int
	mix                   string // empty = slam.DefaultMix
	replica               bool   // reads served by an in-process follower
}

// slamShapes holds the fixed shape of every profile.  base is the balanced
// shape: six tenant sessions under four workers of the default read-heavy
// mix.  contended oversubscribes the per-session writer slots — four
// sessions under sixteen workers of a delta-heavy mix keep several requests
// queued behind every slot for the whole run.  replica boots a
// primary/follower replication pair (internal/replic) and serves the
// read-heavy mix's reads and metrics from the follower.  The op budgets are
// sized so that five runs of a cell agree on allocated bytes per request
// well inside the gate's bound (see slamAllocBound).
var slamShapes = map[string]slamShape{
	SlamProfileBase:      {tenants: 6, workers: 4, ops: 4000},
	SlamProfileContended: {tenants: 4, workers: 16, ops: 6000, mix: "read=50,delta=45,metrics=5"},
	SlamProfileReplica:   {tenants: 4, workers: 8, ops: 4000, mix: "read=70,delta=20,metrics=10", replica: true},
}

// slamShapeOf resolves a profile name.
func slamShapeOf(profile string) (slamShape, error) {
	shape, ok := slamShapes[profile]
	if !ok {
		return slamShape{}, fmt.Errorf("scenario: unknown slam profile %q (known: %s, %s, %s)",
			profile, SlamProfileBase, SlamProfileContended, SlamProfileReplica)
	}
	return shape, nil
}

// runSlamBench drives the cell's slam profile: a closed-loop multi-tenant
// load run against an in-process divd instance, tenants shaped like the
// cell's network.  The fixed op budget (not a duration) makes every run the
// same work, so the counters gate everywhere and only the latencies vary
// with the machine.  The result is the RunResult divslam reports, minus the
// histogram buckets (quantiles are already rendered; the buckets would
// dominate the BENCH file).
func runSlamBench(ctx context.Context, c Cell) (*slam.RunResult, error) {
	shape, err := slamShapeOf(c.SlamProfile)
	if err != nil {
		return nil, err
	}
	rep, err := slam.Run(ctx, slam.Config{
		Mode:           "closed",
		Tenants:        shape.tenants,
		Hosts:          c.Hosts,
		Degree:         c.Degree,
		Services:       c.Services,
		Solver:         c.Solver,
		Seed:           c.Seed,
		Workers:        shape.workers,
		Ops:            shape.ops,
		Mix:            shape.mix,
		MaxIterations:  c.MaxIterations,
		AssessRuns:     10,
		RequestTimeout: c.Timeout,
		ReplicaReads:   shape.replica,
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("slam bench: %w", err)
	}
	res := rep.Runs[0]
	res.Total.Buckets = nil
	for op, st := range res.Ops {
		st.Buckets = nil
		res.Ops[op] = st
	}
	return &res, nil
}

package scenario

import (
	"context"
	"errors"
	"runtime"
	"time"

	"netdiversity/internal/multilevel"
	"netdiversity/internal/netgen"
	"netdiversity/internal/solve"
)

// execGraphCell runs one graph-direct cell: the streamed CSR generator emits
// the diversification MRF without a netmodel.Network and the cell's solver
// runs on it straight through the solve registry.  There is no assignment
// decode and no attack/churn/serve phase — this path exists to measure raw
// solver scaling at sizes (10^5–10^6 hosts) the map-based network model
// cannot represent.  Generation happens outside the timed window: the cell
// measures the solve, and generation cost is identical across the solver
// axis anyway.
func execGraphCell(ctx context.Context, c Cell) (Measurement, error) {
	meta := Measurement{
		ID:           c.ID,
		Topology:     c.Topology,
		Hosts:        c.Hosts,
		Degree:       c.Degree,
		Services:     c.Services,
		Solver:       c.Solver,
		Attack:       c.Attack.String(),
		Seed:         c.Seed,
		InstanceSeed: c.instanceSeed(),
	}
	// The instance seed ignores the solver axis, so the trws and multilevel
	// twins of a cell solve the identical graph and the energy-gap
	// annotation compares like with like.
	g, err := netgen.UniformGraph(c.instanceConfig())
	if err != nil {
		return meta, err
	}
	meta.Nodes = g.NumNodes()
	meta.Edges = g.NumEdges()

	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	iters := c.MaxIterations
	if iters <= 0 {
		iters = 20
	}
	opts := solve.Options{
		MaxIterations: iters,
		Seed:          c.Seed,
		// The multilevel kernel hands Checkpoint down to its inner per-level
		// solves, so the cell deadline cuts into a long solve at iteration
		// granularity instead of only between hierarchy phases.
		Checkpoint: func(context.Context) error { return ctx.Err() },
	}
	repeats := c.Repeats
	if repeats <= 0 {
		repeats = 1
	}

	var (
		memPre, memPost runtime.MemStats
		bestMS          float64
	)
	runtime.ReadMemStats(&memPre)
	for r := 0; r < repeats; r++ {
		start := time.Now()
		var err error
		if c.Solver == "multilevel" {
			// Stride=services tells the aggregation path to group whole hosts
			// while keeping each service's variables separate.
			k := &multilevel.Kernel{Stride: c.Services}
			res, stats, serr := k.SolveWithStats(ctx, g, opts)
			err = serr
			if serr == nil {
				meta.Energy = res.Energy
				meta.Iterations = res.Iterations
				meta.Converged = res.Converged
				meta.CoarsenMS = stats.CoarsenMS
				meta.Levels = stats.Levels
			}
		} else {
			res, serr := solve.Solve(ctx, c.Solver, g, opts)
			err = serr
			if serr == nil {
				meta.Energy = res.Energy
				meta.Iterations = res.Iterations
				meta.Converged = res.Converged
			}
		}
		wall := float64(time.Since(start)) / float64(time.Millisecond)
		if err != nil {
			meta.WallMS = wall
			meta.TimedOut = errors.Is(err, context.DeadlineExceeded)
			return meta, err
		}
		if r == 0 || wall < bestMS {
			bestMS = wall
		}
	}
	runtime.ReadMemStats(&memPost)
	meta.WallMS = bestMS
	meta.AllocObjects = (memPost.Mallocs - memPre.Mallocs) / uint64(repeats)
	meta.AllocBytes = (memPost.TotalAlloc - memPre.TotalAlloc) / uint64(repeats)
	return meta, nil
}

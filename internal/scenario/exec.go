package scenario

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"time"

	"netdiversity/internal/core"
	"netdiversity/internal/metrics"
	"netdiversity/internal/netmodel"
	"netdiversity/internal/slam"
	"netdiversity/internal/vulnsim"
)

// Measurement is the machine-readable result of one cell: everything a
// baseline diff or a paper table needs, and nothing that fails to serialise.
type Measurement struct {
	ID       string `json:"id"`
	Topology string `json:"topology,omitempty"`
	Hosts    int    `json:"hosts"`
	Degree   int    `json:"degree,omitempty"`
	Services int    `json:"services,omitempty"`
	Solver   string `json:"solver"`
	Attack   string `json:"attack"`
	Seed     int64  `json:"seed"`
	// InstanceSeed is the seed the cell's instance was generated from
	// (Cell.GraphSeed, or Seed for hand-built cells).
	InstanceSeed int64 `json:"instance_seed,omitempty"`

	// Energy is the achieved objective (Eq. 1); PairwiseCost the pairwise
	// similarity part of it (Eq. 3); Richness the d1 diversity metric of the
	// decoded assignment.
	Energy       float64 `json:"energy"`
	PairwiseCost float64 `json:"pairwise_cost"`
	Richness     float64 `json:"richness"`
	// MTTC and PCompromise report the attack-model evaluation (zero when the
	// attack model is "none").
	MTTC        float64 `json:"mttc,omitempty"`
	PCompromise float64 `json:"p_compromise,omitempty"`
	// MCRunsPerSec and MCAllocPerRun report the Monte-Carlo attack engine's
	// throughput and per-run heap allocation (present only on the adv-*
	// attack models, which run the compiled batched simulator; the analytic
	// models have no Monte-Carlo phase).  Allocation is approximate when
	// cells run concurrently.
	MCRunsPerSec  float64 `json:"mc_runs_per_sec,omitempty"`
	MCAllocPerRun uint64  `json:"mc_alloc_per_run,omitempty"`

	// Iterations/Converged/Nodes/Edges describe the solve.
	Iterations int  `json:"iterations"`
	Converged  bool `json:"converged"`
	Nodes      int  `json:"nodes"`
	Edges      int  `json:"edges"`

	// WallMS is the wall-clock of one solve in milliseconds (minimum over
	// Repeats); AllocObjects/AllocBytes the heap allocations of one solve
	// (mean over Repeats, approximate when cells run concurrently).
	WallMS       float64 `json:"wall_ms"`
	AllocObjects uint64  `json:"alloc_objects"`
	AllocBytes   uint64  `json:"alloc_bytes"`

	// Churn fields (present only on churn cells): the incremental engine's
	// delta stream replay versus a from-scratch re-solve after every step.
	// ChurnSteps counts the replayed deltas; ChurnIncrementalMS and
	// ChurnFullMS are the summed wall-clocks of the two paths;
	// ChurnSpeedup = ChurnFullMS / ChurnIncrementalMS; ChurnEnergyGapPct is
	// the worst per-step energy gap of incremental over full in percent
	// (negative when the incremental path won); ChurnChangedFrac is the mean
	// fraction of surviving hosts whose assignment changed per step
	// (assignment stability).  ChurnDirtyNodes, ChurnIterations and
	// ChurnAllocBytes sum, over the steps, the dirty frontier handed to the
	// warm solve, its sweeps and the bytes the apply + reoptimize step
	// allocated: the incremental path's work, independent of the clock.
	Churn              string  `json:"churn,omitempty"`
	ChurnSteps         int     `json:"churn_steps,omitempty"`
	ChurnIncrementalMS float64 `json:"churn_incremental_ms,omitempty"`
	ChurnFullMS        float64 `json:"churn_full_ms,omitempty"`
	ChurnSpeedup       float64 `json:"churn_speedup,omitempty"`
	ChurnEnergyGapPct  float64 `json:"churn_energy_gap_pct,omitempty"`
	ChurnChangedFrac   float64 `json:"churn_changed_frac,omitempty"`
	ChurnDirtyNodes    int     `json:"churn_dirty_nodes,omitempty"`
	ChurnIterations    int     `json:"churn_iterations,omitempty"`
	ChurnAllocBytes    uint64  `json:"churn_alloc_bytes,omitempty"`

	// Slam is the load phase of a slam cell: the cell's profile run closed
	// loop against an in-process divd, reported in the form divslam writes
	// (slam.RunResult, histogram buckets stripped; docs/LOADTEST.md explains
	// every field).
	Slam *slam.RunResult `json:"slam,omitempty"`

	// Scale fields (present only on graph-direct multilevel cells):
	// CoarsenMS is the wall-clock of the hierarchy build inside the solve,
	// Levels the hierarchy depth including the fine graph, and
	// EnergyGapVsFlatPct the cell's energy relative to the flat trws cell of
	// the same topology/size axes in the same run, in percent (negative when
	// multilevel found the lower energy; absent when no trws twin completed).
	CoarsenMS          float64 `json:"coarsen_ms,omitempty"`
	Levels             int     `json:"levels,omitempty"`
	EnergyGapVsFlatPct float64 `json:"energy_gap_vs_flat_pct,omitempty"`

	// TimedOut records a cell that hit its per-cell deadline.  A timed-out
	// cell keeps Error empty: the timeout is an expected degradation on slow
	// runners (the 1M-host cell in particular), so it marks the report
	// instead of failing the suite.  Error records every other failure; its
	// metric fields are zero.
	TimedOut bool   `json:"timed_out,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Outcome extends a Measurement with the in-memory artefacts the experiment
// tables need (and reports do not serialise).
type Outcome struct {
	Measurement
	// Assignment is the decoded optimal assignment of the cell.
	Assignment *netmodel.Assignment
	// EnergyHistory is the solver's best-energy trace.
	EnergyHistory []float64
}

// Exec runs one cell on the given network and similarity table: it solves the
// diversification instance with the cell's solver (through the partitioned
// parallel pipeline when Parts > 1), honours the cell's timeout and
// warm-start setting, and evaluates the result.  The network/similarity pair
// normally comes from BuildNetwork, but callers with their own instance (the
// fixed paper examples) pass it directly.
func Exec(ctx context.Context, net *netmodel.Network, sim *vulnsim.SimilarityTable, c Cell) (Outcome, error) {
	if net == nil || sim == nil {
		return Outcome{}, errors.New("scenario: network and similarity table must not be nil")
	}
	if c.Attack == 0 {
		c.Attack = AttackNone
	}
	meta := Measurement{
		ID:           c.ID,
		Topology:     c.Topology,
		Hosts:        net.NumHosts(),
		Degree:       c.Degree,
		Services:     c.Services,
		Solver:       c.Solver,
		Attack:       c.Attack.String(),
		Seed:         c.Seed,
		InstanceSeed: c.instanceSeed(),
	}
	solver, err := core.ParseSolver(c.Solver)
	if err != nil {
		return Outcome{Measurement: meta}, err
	}
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	iters := c.MaxIterations
	if iters <= 0 {
		iters = 20
	}
	repeats := c.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	opts := core.Options{
		Solver:        solver,
		MaxIterations: iters,
		Seed:          c.Seed,
		Workers:       c.Parts, // the block pool solves every block at once
		DisablePolish: c.DisablePolish,
	}

	var (
		opt     *core.Optimizer
		res     core.Result
		memPre  runtime.MemStats
		memPost runtime.MemStats
		bestMS  float64
	)
	runtime.ReadMemStats(&memPre)
	for r := 0; r < repeats; r++ {
		start := time.Now()
		// A fresh optimiser per repeat keeps the measurement a true cold
		// build + solve: the engine caches the built MRF across solves, so
		// reusing one optimiser would time only the solve after repeat 0.
		opt, err = core.NewOptimizer(net, sim, opts)
		if err != nil {
			return Outcome{Measurement: meta}, err
		}
		if c.Parts > 1 {
			pres, perr := opt.OptimizeParallel(ctx, c.Parts)
			err = perr
			res = pres.Result
		} else {
			res, err = opt.Optimize(ctx)
		}
		wall := float64(time.Since(start)) / float64(time.Millisecond)
		if err != nil {
			meta.WallMS = wall
			meta.TimedOut = errors.Is(err, context.DeadlineExceeded)
			return Outcome{Measurement: meta}, err
		}
		if r == 0 || wall < bestMS {
			bestMS = wall
		}
	}
	runtime.ReadMemStats(&memPost)

	meta.Energy = res.Energy
	meta.Iterations = res.Iterations
	meta.Converged = res.Converged
	meta.Nodes = res.Nodes
	meta.Edges = res.Edges
	meta.WallMS = bestMS
	meta.AllocObjects = (memPost.Mallocs - memPre.Mallocs) / uint64(repeats)
	meta.AllocBytes = (memPost.TotalAlloc - memPre.TotalAlloc) / uint64(repeats)

	pc, err := core.PairwiseSimilarityCost(net, sim, res.Assignment)
	if err != nil {
		return Outcome{Measurement: meta}, err
	}
	meta.PairwiseCost = pc
	rich, err := metrics.Richness(net, res.Assignment)
	if err != nil {
		return Outcome{Measurement: meta}, err
	}
	meta.Richness = rich.Overall

	atk, err := evaluateAttack(ctx, net, sim, res.Assignment, c.Attack, c.AttackRuns, c.Seed)
	if err != nil {
		meta.TimedOut = errors.Is(err, context.DeadlineExceeded)
		return Outcome{Measurement: meta}, err
	}
	meta.MTTC = atk.MTTC
	meta.PCompromise = atk.PCompromise
	meta.MCRunsPerSec = atk.MCRunsPerSec
	meta.MCAllocPerRun = atk.MCAllocPerRun

	if c.SlamProfile != "" {
		meta.Slam, err = runSlamBench(ctx, c)
		if err != nil {
			meta.TimedOut = errors.Is(err, context.DeadlineExceeded)
			return Outcome{Measurement: meta}, err
		}
	}

	if !c.Churn.None() {
		// The churn phase mutates the cell's network in place through the
		// incremental optimiser (callers passing their own network should
		// hand Exec a clone when they need it unchanged afterwards).
		deltas, err := GenerateChurn(net, c)
		if err != nil {
			return Outcome{Measurement: meta}, err
		}
		cm, err := runChurn(ctx, opt, net, sim, deltas, opts)
		if err != nil {
			meta.TimedOut = errors.Is(err, context.DeadlineExceeded)
			return Outcome{Measurement: meta}, err
		}
		meta.Churn = c.Churn.String()
		meta.ChurnSteps = cm.steps
		meta.ChurnIncrementalMS = cm.incrementalMS
		meta.ChurnFullMS = cm.fullMS
		if cm.incrementalMS > 0 {
			meta.ChurnSpeedup = cm.fullMS / cm.incrementalMS
		}
		meta.ChurnEnergyGapPct = cm.maxGapPct
		meta.ChurnChangedFrac = cm.changedFrac
		meta.ChurnDirtyNodes = cm.dirtyNodes
		meta.ChurnIterations = cm.iterations
		meta.ChurnAllocBytes = cm.allocBytes
	}

	return Outcome{
		Measurement:   meta,
		Assignment:    res.Assignment,
		EnergyHistory: res.EnergyHistory,
	}, nil
}

// Run expands the matrix and executes every cell through a bounded worker
// pool.  Per-cell failures (including timeouts) are recorded in the cell's
// measurement instead of aborting the sweep; Run itself fails only on an
// invalid matrix or a cancelled context.
func Run(ctx context.Context, m Matrix) (*Report, error) {
	m = m.withDefaults()
	cells, err := Expand(m)
	if err != nil {
		return nil, err
	}
	results := make([]Measurement, len(cells))
	workers := m.Workers
	if workers > len(cells) {
		workers = len(cells)
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = runCell(ctx, cells[i])
			}
		}()
	}
	for i := range cells {
		work <- i
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	annotateEnergyGaps(results)
	rep := NewReport(m)
	rep.Cells = results
	return rep, nil
}

// runCell builds a cell's network and executes it, converting any failure
// into the measurement's error fields.  A per-cell timeout is recorded as
// the timed_out marker, not as an error: a cell that outgrows a runner
// degrades the report instead of failing the suite.
func runCell(ctx context.Context, c Cell) Measurement {
	if c.GraphDirect {
		return finishCell(execGraphCell(ctx, c))
	}
	net, sim, err := BuildNetwork(c)
	if err != nil {
		return Measurement{
			ID: c.ID, Topology: c.Topology, Hosts: c.Hosts, Degree: c.Degree,
			Services: c.Services, Solver: c.Solver, Attack: c.Attack.String(),
			Seed: c.Seed, InstanceSeed: c.instanceSeed(), Error: err.Error(),
		}
	}
	out, err := Exec(ctx, net, sim, c)
	return finishCell(out.Measurement, err)
}

// finishCell folds an execution error into the measurement: deadline hits
// become the timed_out marker, everything else the error field.
func finishCell(m Measurement, err error) Measurement {
	if err == nil {
		return m
	}
	if m.TimedOut || errors.Is(err, context.DeadlineExceeded) {
		m.TimedOut = true
		return m
	}
	m.Error = err.Error()
	return m
}

// annotateEnergyGaps back-fills EnergyGapVsFlatPct on every completed
// multilevel cell whose flat-trws twin (same axes, solver segment swapped)
// completed in the same run — the scale suite's headline quality metric.
func annotateEnergyGaps(results []Measurement) {
	energies := make(map[string]float64, len(results))
	for _, m := range results {
		if m.Solver == "trws" && m.Error == "" && !m.TimedOut {
			energies[m.ID] = m.Energy
		}
	}
	for i := range results {
		m := &results[i]
		if m.Solver != "multilevel" || m.Error != "" || m.TimedOut {
			continue
		}
		twin := strings.Replace(m.ID, "/multilevel/", "/trws/", 1)
		if flat, ok := energies[twin]; ok && flat != 0 {
			m.EnergyGapVsFlatPct = (m.Energy - flat) / flat * 100
		}
	}
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setups is how often a run repeats its set-up; setup_s is the median.  The
// repeats double as the determinism gate: every set-up of one seed must
// leave every tenant at the same version and assignment hash.
const setups = 3

// clockFreeRounds is the number of rounds of a clock-free run.
const clockFreeRounds = 3

// runConfig selects one run.
type runConfig struct {
	w    workload
	seed int64
	// seconds is the length of the measured phase.  cyclesPerRound, when
	// positive, replaces the clock: every round runs exactly that many
	// cycles (tests and the determinism gate need clock-free runs).
	seconds        float64
	cyclesPerRound int
	// workDir holds the WAL data directories (inside the checkout).
	workDir string
}

// live is one set-up deployment with its load client and op stream.
type live struct {
	cfg     runConfig
	tenants []*tenant
	sched   *schedule
	st      *stack
	cl      *client
	ops     int
}

// setUp generates the tenants, boots the stack, creates the long-lived
// sessions, runs the warm-up ops and waits for the follower.
func setUp(cfg runConfig, rep int) (*live, error) {
	tenants, err := buildTenants(cfg.w)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("data-%s-%d-%d", cfg.w.name, os.Getpid(), rep))
	st, err := bootStack(cfg.w, dir)
	if err != nil {
		return nil, err
	}
	l := &live{cfg: cfg, tenants: tenants, sched: newSchedule(cfg.w, tenants, cfg.seed), st: st, cl: newClient(st)}
	for _, t := range tenants {
		l.cl.createTenant(t)
	}
	for i := cfg.w.warmOps; i > 0; i-- {
		l.step()
	}
	if err := l.converge(); err != nil {
		l.close()
		return nil, err
	}
	if l.cl.failures > 0 {
		l.close()
		return nil, fmt.Errorf("set-up: %d failed ops, first: %w", l.cl.failures, l.cl.firstErr)
	}
	return l, nil
}

func (l *live) converge() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return l.st.converge(ctx)
}

func (l *live) close() {
	l.cl.close()
	l.st.stop()
	os.RemoveAll(l.st.dataDir)
}

// step issues the next op of the stream and returns its latency class and
// duration (ok false for a failed op).
func (l *live) step() (latKind, time.Duration, bool) {
	l.ops++
	return l.cl.do(l.sched.next(), l.tenants)
}

// runRound runs whole cycles for about d (or exactly cfg.cyclesPerRound
// cycles), so every round executes the workload's exact mix, calibrating as
// it goes, and returns the round's measurements scaled by its speed factor.
func (l *live) runRound(d time.Duration) roundStats {
	var r roundStats
	var cal calibrator
	n := l.cfg.w.cycleLen()
	start, cpu0 := time.Now(), cpuTime()
	cal.run(0)
	for cycles := 0; ; {
		for i := 0; i < n; i++ {
			kind, dur, ok := l.step()
			r.ops++
			if ok {
				r.lat[kind] = append(r.lat[kind], dur)
			}
			cal.maybeRun()
		}
		cycles++
		if l.cfg.cyclesPerRound > 0 {
			if cycles == l.cfg.cyclesPerRound {
				break
			}
			continue
		}
		// Stop at the cycle boundary nearest the deadline.
		if elapsed := time.Since(start); elapsed+elapsed/time.Duration(2*cycles) >= d {
			break
		}
	}
	r.rawWall = time.Since(start) - cal.wall
	r.scale(cal.factor(), cpuTime()-cpu0-cal.cpu)
	return r
}

// runResult is what one run measured and checked.
type runResult struct {
	// attempted and failed count the ops of the deployment that was measured
	// (tenant creates, warm-up and measured phase); a failure in an earlier
	// set-up aborts the run.
	attempted, failed int
	metrics           map[string]float64
	gateErrs          []error
	firstOpErr        error
	schedDigest       uint64
	// setupDigest fingerprints every tenant's (version, hash) after set-up,
	// finalDigest after the measured phase.
	setupDigest, finalDigest string
	measuredS                float64
	roundStats               []roundStats
}

// run executes one untraced run: repeated set-up, the measured rounds and
// the correctness gates.
func run(cfg runConfig) (*runResult, error) {
	res := &runResult{metrics: map[string]float64{}}
	var l *live
	var setupS []float64
	for rep := 0; rep < setups; rep++ {
		if l != nil {
			l.close()
		}
		var cal calibrator
		cal.run(calMax)
		start := time.Now()
		var err error
		if l, err = setUp(cfg, rep); err != nil {
			return nil, err
		}
		took := time.Since(start).Seconds()
		cal.run(calMax)
		setupS = append(setupS, took/cal.factor())
		d := stateDigest(l.st.srv, l.tenants)
		if rep > 0 && d != res.setupDigest {
			res.gateErrs = append(res.gateErrs, fmt.Errorf("determinism: set-up %d left state %s, set-up 0 left %s", rep, d, res.setupDigest))
		}
		res.setupDigest = d
	}
	defer l.close()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops0 := l.ops
	start := time.Now()
	total := time.Duration(cfg.seconds * float64(time.Second))
	var rs []roundStats
	for {
		rs = append(rs, l.runRound(total/roundsPerRun))
		if cfg.cyclesPerRound > 0 {
			if len(rs) == clockFreeRounds {
				break
			}
		} else if time.Since(start) >= total-total/(2*roundsPerRun) {
			break
		}
	}
	res.measuredS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	measured := l.ops - ops0

	res.finalDigest = stateDigest(l.st.srv, l.tenants)
	res.gateErrs = append(res.gateErrs, finalGates(l)...)
	res.attempted = l.ops + len(l.tenants)
	res.failed = l.cl.failures
	res.firstOpErr = l.cl.firstErr
	res.schedDigest = l.sched.digest
	res.roundStats = rs

	var energy float64
	hosts := 0
	for _, t := range l.tenants {
		energy += t.energy
		hosts += len(t.hosts)
	}
	res.metrics = map[string]float64{
		"setup_s":            median(setupS),
		"throughput_rps":     medianRound(rs, (*roundStats).throughput),
		"cpu_ms_per_op":      medianRound(rs, (*roundStats).cpuPerOp),
		"read_cached_p50_ms": pooledLatency(rs, latReadCached, 0.5),
		"read_fresh_p50_ms":  pooledLatency(rs, latReadFresh, 0.5),
		"delta_p50_ms":       pooledLatency(rs, latDelta, 0.5),
		"delta_p90_ms":       pooledLatency(rs, latDelta, 0.9),
		"create_p50_ms":      pooledLatency(rs, latCreate, 0.5),
		"assess_p50_ms":      pooledLatency(rs, latAssess, 0.5),
		"alloc_kb_per_op":    float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(measured),
		"energy_per_host":    energy / float64(hosts),
	}
	return res, nil
}

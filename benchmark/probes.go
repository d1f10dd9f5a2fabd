package main

import (
	"context"
	"net"
	"net/http"
	"runtime"
	"time"

	"netdiversity/internal/coarsen"
	"netdiversity/internal/multilevel"
	"netdiversity/internal/netgen"
	"netdiversity/internal/replic"
	"netdiversity/internal/serve"
	"netdiversity/internal/solve"
	"netdiversity/internal/wal"
)

// The one-shot probes run once after the traced phase: each calls one
// layer's public entry point on an input of the workload's shape.

// probeSolvers times a cold flat trws solve, a multilevel solve and one
// aggregation pass on the MRF of a tenant-shaped uniform graph.
func (tr *tracer) probeSolvers(m map[string]float64) {
	w := tr.l.cfg.w
	g, err := netgen.UniformGraph(netgen.RandomConfig{
		Hosts: w.hosts, Degree: netDegree, Services: netServices, ProductsPerService: netProducts, Seed: tr.l.cfg.seed,
	})
	if err != nil {
		tr.fail("solver probe: %v", err)
		return
	}
	opts := solve.Options{MaxIterations: solverIters}
	start := time.Now()
	sol, err := solve.Solve(tr.ctx, "trws", g, opts)
	if err != nil {
		tr.fail("trws probe: %v", err)
		return
	}
	m["trws.cold_solve_ms"] = ms(time.Since(start))
	m["trws.sweeps"] = float64(sol.Iterations)

	start = time.Now()
	_, stats, err := (&multilevel.Kernel{Stride: netServices}).SolveWithStats(tr.ctx, g, opts)
	if err != nil {
		tr.fail("multilevel probe: %v", err)
		return
	}
	m["multilevel.solve_ms"] = ms(time.Since(start))
	m["multilevel.coarsen_ms"] = stats.CoarsenMS
	m["multilevel.levels"] = float64(stats.Levels)
	m["multilevel.refined_nodes"] = float64(stats.RefinedNodes)

	if target := multilevel.DefaultAggregateTarget; target < g.NumNodes() {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, _, err := coarsen.Aggregate(g, netServices, target); err != nil {
			tr.fail("aggregate probe: %v", err)
			return
		}
		runtime.ReadMemStats(&m1)
		m["coarsen.alloc_kb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	}
}

// probeRestart times a restart from the probe WAL: Manager.Recover of the
// data directory, then serve.Restore of every recovered session, and checks
// that each comes back at the library replica's version and hash.
func (tr *tracer) probeRestart(m map[string]float64) {
	if err := tr.probeMgr.Close(); err != nil {
		tr.fail("restart probe: %v", err)
		return
	}
	mgr, err := wal.Open(walOptions(tr.probeDir))
	if err != nil {
		tr.fail("restart probe: %v", err)
		return
	}
	tr.probeMgr = mgr
	start := time.Now()
	recovered, skipped, err := mgr.Recover()
	took := time.Since(start)
	if err != nil || len(skipped) > 0 || len(recovered) != len(tr.libs) {
		tr.fail("restart probe: recovered %d of %d sessions, %d skipped: %v", len(recovered), len(tr.libs), len(skipped), err)
		return
	}
	replayed := 0
	for _, rec := range recovered {
		replayed += rec.Replayed
	}
	m["wal.recover_ms_per_session"] = ms(took) / float64(len(recovered))
	m["wal.replay_records_per_s"] = ratio(float64(replayed), took.Seconds())

	restored := serve.New(serveConfig(tr.l.cfg.w))
	start = time.Now()
	for _, rec := range recovered {
		if err := restored.Restore(rec); err != nil {
			tr.fail("restart probe: %v", err)
			return
		}
	}
	m["wal.restore_ms_per_session"] = ms(time.Since(start)) / float64(len(recovered))
	for _, ls := range tr.libs {
		if v, h, _ := restored.ReplicaVersion(ls.id); v != ls.version || h != ls.hash {
			tr.fail("restart probe: %s restored at %d/%s, library at %d/%s", ls.id, v, h, ls.version, ls.hash)
		}
	}
}

// probeCatchUp syncs a fresh follower from the probe follower's Primary over
// loopback (catch-up from empty), syncs it again (a converged anti-entropy
// round), and sizes the coded-symbol stream a small diff needs.
func (tr *tracer) probeCatchUp(m map[string]float64) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tr.fail("catch-up probe: %v", err)
		return
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/replic/", tr.probePrim.Handler())
	hs := &http.Server{Handler: mux}
	go hs.Serve(ln) //nolint:errcheck // closed below
	defer hs.Close()

	second := serve.New(serveConfig(tr.l.cfg.w))
	second.SetFollower("http://" + ln.Addr().String())
	fol := replic.NewFollower(second, "http://"+ln.Addr().String(), replic.FollowerOptions{})
	ctx, cancel := context.WithTimeout(tr.ctx, time.Minute)
	defer cancel()
	for _, name := range []string{"replic.catchup_ms", "replic.sync_round_ms"} {
		start := time.Now()
		if err := fol.SyncOnce(ctx); err != nil {
			tr.fail("catch-up probe: %v", err)
			return
		}
		m[name] = ms(time.Since(start))
	}
	for _, ls := range tr.libs {
		if v, h, _ := second.ReplicaVersion(ls.id); v != ls.version || h != ls.hash {
			tr.fail("catch-up probe: %s synced to %d/%s, library at %d/%s", ls.id, v, h, ls.version, ls.hash)
		}
	}

	const versions, diff = 1024, 8
	remote := make([]uint64, 0, versions)
	local := make([]uint64, 0, versions)
	for v := uint64(1); v <= versions; v++ {
		remote = append(remote, v)
		if v%(versions/diff) != 0 {
			local = append(local, v)
		}
	}
	for n := diff; n <= versions; n++ {
		if _, _, ok := replic.Reconcile(replic.EncodeSymbols(remote, n), local); ok {
			m["replic.symbols_per_diff"] = float64(n) / diff
			break
		}
	}
}

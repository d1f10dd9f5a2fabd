package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"netdiversity/internal/adversary"
	"netdiversity/internal/attacksim"
	"netdiversity/internal/core"
	"netdiversity/internal/metrics"
	"netdiversity/internal/netmodel"
	"netdiversity/internal/replic"
	"netdiversity/internal/serve"
	"netdiversity/internal/vulnsim"
	"netdiversity/internal/wal"
)

// The traced run keeps three replicas in lock-step, relying on the system's
// determinism contract (same seed and requests, same versions and hashes):
//
//  1. the real deployment behind HTTP, driven by the load client — its op
//     latency is the root span;
//  2. a shadow serve.Server fed the same request through
//     Handler().ServeHTTP — the serve.handler_* spans;
//  3. a library session per tenant (core.Optimizer, a probe wal.Log, a probe
//     follower) fed the same op through the layers' public functions — the
//     library spans.
//
// After every write all three must agree on version and assignment hash,
// which is the traced run's correctness check.

// probeParent marks spans measured on a probe that is not on the op's
// request path in this workload (the WAL in a memory-only workload, the
// follower's apply everywhere).
const probeParent = "probe"

// specLimits are serve's default create limits.
var specLimits = netmodel.SpecLimits{
	MaxHosts: 10000, MaxLinks: 200000, MaxConstraints: 20000,
	MaxServicesPerHost: 32, MaxChoicesPerService: 64,
}

// libSession is the library-level replica of one session.
type libSession struct {
	id   string
	seed int64
	net  *netmodel.Network
	sim  *vulnsim.SimilarityTable
	opt  *core.Optimizer

	assignment *netmodel.Assignment
	energy     float64
	hash       string
	version    uint64

	log *wal.Log
	// The handlers memoise metrics and compiled campaigns per version; the
	// replica skips the same work so handler >= library holds per op.
	metricsVersion, assessVersion uint64
	campaign                      *attacksim.Campaign
}

// capture is the shadow handler's ResponseWriter.
type capture struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (c *capture) Header() http.Header { return c.hdr }
func (c *capture) WriteHeader(s int)   { c.status = s }
func (c *capture) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	return c.body.Write(p)
}

// countingFS counts the bytes the probe WAL writes, for wal.write_amp.
type countingFS struct {
	wal.FS
	written atomic.Int64
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, n: &c.written}, nil
}

type countingFile struct {
	wal.File
	n *atomic.Int64
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}

// tracer owns the shadow replicas and the recorder of one traced run.
type tracer struct {
	l   *live
	rec *recorder
	ctx context.Context

	shadow     *serve.Server
	shadowH    http.Handler
	shadowMgr  *wal.Manager
	shadowPrim *replic.Primary
	shadowRead map[string]uint64
	cap        capture

	// simSpec is the catalogue every create carries; simRaw its JSON, as
	// snapshots journal it.
	simSpec  *serve.SimilaritySpec
	simRaw   json.RawMessage
	libs     []*libSession
	probeDir string
	probeFS  *countingFS
	probeMgr *wal.Manager
	probeFol *serve.Server
	// probePrim is the probe follower's own Primary, as on every divd node;
	// the catch-up probe syncs a second-hop follower from it.
	probePrim *replic.Primary

	nextOp int
	errs   []error
	// baseDir holds the data directories of all three replicas.
	baseDir string

	traceCounts
}

// traceCounts are the tallies behind the count and ratio metrics, reset when
// the traced phase starts.
type traceCounts struct {
	reads, cachedReads    int
	readBytes             int64
	deltaBytes, recBytes  int64
	records, snapshots    int
	optIters, optimizes   int
	reoptIters, reopts    int
	dirtyNodes, rebuilds  int
	lag                   []time.Duration
	rootTotal             time.Duration
	rootOps               int
	selfDelta, selfCreate []time.Duration
	loopRead, loopDelta   []time.Duration
	readLat, deltaLat     []time.Duration
	probeBytes0           int64
}

func (tr *tracer) fail(format string, args ...any) {
	tr.errs = append(tr.errs, fmt.Errorf(format, args...))
}

// newTracer boots the real deployment and its two shadow replicas and brings
// all three through tenant creation and the warm-up ops.
func newTracer(cfg runConfig) (tr *tracer, err error) {
	tenants, err := buildTenants(cfg.w)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-%d", cfg.w.name, os.Getpid()))
	st, err := bootStack(cfg.w, filepath.Join(base, "real"))
	if err != nil {
		return nil, err
	}
	tr = &tracer{
		l:          &live{cfg: cfg, tenants: tenants, sched: newSchedule(cfg.w, tenants, cfg.seed), st: st, cl: newClient(st)},
		rec:        newRecorder(),
		ctx:        context.Background(),
		shadowRead: map[string]uint64{},
		cap:        capture{hdr: http.Header{}},
		libs:       make([]*libSession, len(tenants)),
		baseDir:    base,
		probeDir:   filepath.Join(base, "probe"),
	}
	defer func() {
		if err != nil {
			tr.close()
		}
	}()
	tr.simSpec = similaritySpec()
	if tr.simRaw, err = json.Marshal(tr.simSpec); err != nil {
		return nil, err
	}

	scfg := serveConfig(cfg.w)
	if cfg.w.durable {
		// The shadow journals and feeds a Primary like the real server, so
		// its handler spans cover the same work (minus the push to a
		// follower, which runs on other goroutines).
		if tr.shadowMgr, err = wal.Open(walOptions(filepath.Join(base, "shadow"))); err != nil {
			return nil, err
		}
		tr.shadowPrim = replic.NewPrimary(replic.PrimaryOptions{})
		scfg.Persist, scfg.Replicator = tr.shadowMgr, tr.shadowPrim
	}
	tr.shadow = serve.New(scfg)
	if tr.shadowPrim != nil {
		tr.shadowPrim.Bind(tr.shadow)
	}
	tr.shadowH = tr.shadow.Handler()

	tr.probeFS = &countingFS{FS: wal.OS}
	popts := walOptions(tr.probeDir)
	popts.FS = tr.probeFS
	if tr.probeMgr, err = wal.Open(popts); err != nil {
		return nil, err
	}
	tr.probePrim = replic.NewPrimary(replic.PrimaryOptions{})
	pcfg := serveConfig(cfg.w)
	pcfg.Replicator = tr.probePrim
	tr.probeFol = serve.New(pcfg)
	tr.probeFol.SetFollower("http://probe.invalid")
	tr.probePrim.Bind(tr.probeFol)

	for i, t := range tenants {
		tr.createTenant(i, t)
	}
	for i := cfg.w.warmOps; i > 0; i-- {
		tr.step()
	}
	if err := tr.l.converge(); err != nil {
		return nil, err
	}
	return tr, nil
}

func (tr *tracer) close() {
	for _, m := range []*wal.Manager{tr.shadowMgr, tr.probeMgr} {
		if m != nil {
			m.Close() //nolint:errcheck // the directory is removed next
		}
	}
	for _, p := range []*replic.Primary{tr.shadowPrim, tr.probePrim} {
		if p != nil {
			p.Close()
		}
	}
	tr.l.close()
	os.RemoveAll(tr.baseDir)
}

// serveShadow runs one request through the shadow handler and returns how
// long ServeHTTP took; the response is left in tr.cap.
func (tr *tracer) serveShadow(method, path string, body []byte) (start, d time.Duration) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	clear(tr.cap.hdr)
	tr.cap.status = 0
	tr.cap.body.Reset()
	start = time.Since(tr.rec.t0)
	tr.shadowH.ServeHTTP(&tr.cap, req)
	return start, time.Since(tr.rec.t0) - start
}

// shadowAck decodes the shadow's create or delta response.
func (tr *tracer) shadowAck(what string, want int) writeAck {
	var ack writeAck
	if tr.cap.status != want {
		tr.fail("shadow %s: status %d: %s", what, tr.cap.status, bytes.TrimSpace(tr.cap.body.Bytes()))
	} else if err := json.Unmarshal(tr.cap.body.Bytes(), &ack); err != nil {
		tr.fail("shadow %s: %v", what, err)
	}
	return ack
}

// lockStep checks that the three replicas agree after a write.
func (tr *tracer) lockStep(what string, realV uint64, realH string, shadow writeAck, ls *libSession) {
	if shadow.Version != realV || shadow.AssignmentHash != realH || ls.version != realV || ls.hash != realH {
		tr.fail("%s: replicas diverged: real %d/%s shadow %d/%s library %d/%s",
			what, realV, realH, shadow.Version, shadow.AssignmentHash, ls.version, ls.hash)
	}
}

// createTenant creates one long-lived session on all three replicas.
func (tr *tracer) createTenant(i int, t *tenant) {
	op := tr.nextOp
	tr.nextOp++
	tr.l.cl.createTenant(t)
	start, d := tr.serveShadow(http.MethodPost, "/v1/networks", t.createBody)
	tr.rec.add(op, "serve.handler_create", "http.create", start, d)
	ack := tr.shadowAck("create "+t.id, http.StatusCreated)
	ls := tr.libCreate(op, "serve.handler_create", t, t.id)
	if ls == nil {
		return
	}
	tr.lockStep("create "+t.id, t.version, t.hash, ack, ls)
	snap := tr.libSnapshot(ls)
	var err error
	if ls.log, err = tr.probeMgr.Create(snap); err != nil {
		tr.fail("probe wal create %s: %v", t.id, err)
		return
	}
	if err := tr.probeFol.ReplicaCreate(snap); err != nil {
		tr.fail("probe follower create %s: %v", t.id, err)
		return
	}
	tr.libs[i] = ls
}

// libSnapshot serializes a library session the way serve's walSnapshot does.
func (tr *tracer) libSnapshot(ls *libSession) *wal.SessionSnapshot {
	return &wal.SessionSnapshot{
		ID: ls.id, Solver: tr.l.cfg.w.solver, Seed: ls.seed, MaxIterations: solverIters,
		Version: ls.version, Energy: ls.energy, Hash: ls.hash,
		Spec: netmodel.ToSpec(ls.net, nil), Assignment: ls.assignment, Similarity: tr.simRaw,
	}
}

// similarityFor builds the custom similarity table the way serve does for a
// create request carrying spec.
func similarityFor(net *netmodel.Network, spec *serve.SimilaritySpec) (*vulnsim.SimilarityTable, error) {
	products := net.Products()
	names := make([]string, len(products))
	for i, p := range products {
		names[i] = string(p)
	}
	table := vulnsim.NewSimilarityTable(names)
	for _, e := range spec.Entries {
		if err := table.Set(e.A, e.B, e.Sim, 0); err != nil {
			return nil, err
		}
	}
	return table, nil
}

// libCreate is the library path of a create: decode the spec, build and
// cold-solve, snapshot.
func (tr *tracer) libCreate(op int, parent string, t *tenant, id string) *libSession {
	ls := &libSession{id: id, seed: t.seed, version: 1}
	var err error
	tr.rec.time(op, "netmodel.spec_decode", parent, func() {
		ls.net, _, err = netmodel.DecodeSpecStrict(bytes.NewReader(t.specBody), specLimits)
	})
	if err == nil {
		ls.sim, err = similarityFor(ls.net, tr.simSpec)
	}
	var solver core.Solver
	if err == nil {
		solver, err = core.ParseSolver(tr.l.cfg.w.solver)
	}
	if err != nil {
		tr.fail("library create %s: %v", id, err)
		return nil
	}
	var res core.Result
	tr.rec.time(op, "core.optimize", parent, func() {
		ls.opt, err = core.NewOptimizer(ls.net, ls.sim, core.Options{Solver: solver, MaxIterations: solverIters, Seed: t.seed})
		if err == nil {
			res, err = ls.opt.Optimize(tr.ctx)
		}
	})
	if err != nil {
		tr.fail("library create %s: %v", id, err)
		return nil
	}
	tr.optIters += res.Iterations
	tr.optimizes++
	tr.rec.time(op, "core.snapshot", parent, func() { ls.assignment, ls.energy, _ = ls.opt.Snapshot() })
	ls.hash = ls.assignment.Hash()
	return ls
}

// libDelta is the library path of a delta: decode and validate, apply, warm
// re-solve, snapshot, then journal the record to the probe WAL and replay it
// on the probe follower.
func (tr *tracer) libDelta(op int, parent string, ls *libSession, body []byte) {
	var d netmodel.Delta
	var err error
	tr.rec.time(op, "netmodel.delta_check", parent, func() {
		if d, err = netmodel.NewDeltaDecoder(bytes.NewReader(body)).Strict().Next(); err == nil {
			err = netmodel.NewBatchChecker(ls.net).Check(d)
		}
	})
	if err == nil {
		tr.rec.time(op, "core.apply", parent, func() { err = ls.opt.ApplyDeltaBatch([]netmodel.Delta{d}) })
	}
	var res core.ReoptimizeResult
	if err == nil {
		tr.rec.time(op, "core.reoptimize", parent, func() { res, err = ls.opt.Reoptimize(tr.ctx) })
	}
	if err != nil {
		tr.fail("library delta %s: %v", ls.id, err)
		return
	}
	tr.reopts++
	tr.reoptIters += res.Iterations
	tr.dirtyNodes += res.DirtyNodes
	if res.Rebuilt {
		tr.rebuilds++
	}
	prev := ls.assignment
	tr.rec.time(op, "core.snapshot", parent, func() { ls.assignment, ls.energy, _ = ls.opt.Snapshot() })
	ls.hash = ls.assignment.Hash()
	ls.version++

	changed, removed := ls.assignment.DiffHosts(prev)
	rec := &wal.Record{
		PrevVersion: ls.version - 1, Version: ls.version, Deltas: []netmodel.Delta{d},
		Changed: changed, Removed: removed, Energy: ls.energy, Hash: ls.hash,
	}
	// Only a durable workload's handler journals; elsewhere the WAL spans
	// come from the probe alone.
	walParent := probeParent
	if tr.l.cfg.w.durable {
		walParent = parent
	}
	var payload []byte
	tr.rec.time(op, "wal.encode", probeParent, func() { payload, err = rec.Encode() })
	tr.recBytes += int64(len(payload))
	tr.records++
	tr.deltaBytes += int64(len(body))
	if err == nil {
		tr.rec.time(op, "wal.append", walParent, func() { err = ls.log.Append(rec) })
	}
	if err == nil && ls.log.ShouldSnapshot() {
		tr.snapshots++
		tr.rec.time(op, "wal.snapshot", walParent, func() { err = ls.log.WriteSnapshot(tr.libSnapshot(ls)) })
	}
	if err == nil {
		tr.rec.time(op, "replic.apply", probeParent, func() { err = tr.probeFol.ReplicaApply(ls.id, rec) })
	}
	if err != nil {
		tr.fail("library journal %s: %v", ls.id, err)
	}
}

func endpoints(net *netmodel.Network) (entry, target netmodel.HostID) {
	hosts := net.Hosts()
	return hosts[0], hosts[len(hosts)-1]
}

// libMetrics is the library path of a metrics read.
func (tr *tracer) libMetrics(op int, parent string, ls *libSession) {
	if ls.metricsVersion == ls.version {
		return
	}
	ls.metricsVersion = ls.version
	entry, target := endpoints(ls.net)
	var err error
	tr.rec.time(op, "metrics.eval", parent, func() {
		if _, err = core.PairwiseSimilarityCost(ls.net, ls.sim, ls.assignment); err == nil {
			_, err = metrics.Evaluate(ls.net, ls.assignment, ls.sim, metrics.EffortConfig{Entry: entry, Target: target})
		}
	})
	if err != nil {
		tr.fail("library metrics %s: %v", ls.id, err)
	}
}

// libAssess is the library path of an assess with assessBody's parameters.
func (tr *tracer) libAssess(op int, parent string, ls *libSession) {
	var err error
	if ls.assessVersion != ls.version {
		ls.assessVersion = ls.version
		entry, target := endpoints(ls.net)
		tr.rec.time(op, "attacksim.compile", parent, func() {
			var ev *adversary.Evaluator
			if ev, err = adversary.New(ls.net, ls.assignment, ls.sim); err == nil {
				ls.campaign, err = ev.Compile(adversary.Config{
					Entry: entry, Target: target, Knowledge: adversary.KnowledgeFull,
					Runs: 20, MaxTicks: 100, Seed: 7,
				})
			}
		})
	}
	if err == nil {
		tr.rec.time(op, "attacksim.batch", parent, func() {
			_, err = ls.campaign.RunBatch(tr.ctx, attacksim.BatchOptions{Mode: attacksim.ModeEvent})
		})
	}
	if err != nil {
		tr.fail("library assess %s: %v", ls.id, err)
	}
}

// childTime sums the library spans of op recorded under parent since mark.
func (tr *tracer) childTime(mark int, parent string) time.Duration {
	var sum time.Duration
	for _, s := range tr.rec.spans[mark:] {
		if s.Parent == parent {
			sum += s.dur()
		}
	}
	return sum
}

// step runs the next op of the stream on all three replicas.
func (tr *tracer) step() {
	l := tr.l
	o := l.sched.next()
	t := l.tenants[o.tenant]
	ls := tr.libs[o.tenant]
	op := tr.nextOp
	tr.nextOp++

	start := time.Since(tr.rec.t0)
	kind, dur, ok := l.cl.do(o, l.tenants)
	l.ops++
	root := "http." + latNames[kind]
	tr.rec.add(op, root, "", start, dur)
	if !ok || ls == nil {
		return
	}
	tr.rootTotal += dur
	tr.rootOps++
	if kind == latDelta && l.st.folSrv != nil {
		acked := time.Now()
		for {
			if v, _, _ := l.st.folSrv.ReplicaVersion(t.id); v >= t.version {
				tr.lag = append(tr.lag, time.Since(acked))
				break
			}
			if time.Since(acked) > 10*time.Second {
				tr.fail("follower never published %s version %d", t.id, t.version)
				break
			}
			time.Sleep(20 * time.Microsecond)
		}
	}

	path := "/v1/networks/" + t.id
	mark := len(tr.rec.spans)
	switch o.kind {
	case opRead:
		hs, hd := tr.serveShadow(http.MethodGet, path+"/assignment", nil)
		h, err := parseReadHead(tr.cap.body.Bytes())
		if tr.cap.status != http.StatusOK || err != nil || h.Version != ls.version || h.AssignmentHash != ls.hash {
			tr.fail("shadow read %s: status %d, %d/%s (%v), library at %d/%s", t.id, tr.cap.status, h.Version, h.AssignmentHash, err, ls.version, ls.hash)
		}
		class := readClass(tr.shadowRead[t.id], h.Version)
		if class == latReadCached {
			tr.cachedReads++
		}
		tr.shadowRead[t.id] = h.Version
		tr.reads++
		tr.readBytes += int64(tr.cap.body.Len())
		tr.rec.add(op, "serve.handler_"+latNames[class], root, hs, hd)
		tr.loopRead = append(tr.loopRead, dur-hd)
		tr.readLat = append(tr.readLat, dur)
	case opMetrics:
		hs, hd := tr.serveShadow(http.MethodGet, path+"/metrics", nil)
		if tr.cap.status != http.StatusOK {
			tr.fail("shadow metrics %s: status %d", t.id, tr.cap.status)
		}
		tr.rec.add(op, "serve.handler_metrics", root, hs, hd)
		tr.libMetrics(op, "serve.handler_metrics", ls)
	case opDelta:
		hs, hd := tr.serveShadow(http.MethodPost, path+"/deltas", o.body)
		tr.rec.add(op, "serve.handler_delta", root, hs, hd)
		ack := tr.shadowAck("delta "+t.id, http.StatusOK)
		tr.libDelta(op, "serve.handler_delta", ls, o.body)
		tr.lockStep("delta "+t.id, t.version, t.hash, ack, ls)
		tr.selfDelta = append(tr.selfDelta, hd-tr.childTime(mark, "serve.handler_delta"))
		tr.loopDelta = append(tr.loopDelta, dur-hd)
		tr.deltaLat = append(tr.deltaLat, dur)
	case opAssess:
		hs, hd := tr.serveShadow(http.MethodPost, path+"/assess", o.body)
		if tr.cap.status != http.StatusOK {
			tr.fail("shadow assess %s: status %d", t.id, tr.cap.status)
		}
		tr.rec.add(op, "serve.handler_assess", root, hs, hd)
		tr.libAssess(op, "serve.handler_assess", ls)
	case opCreate:
		hs, hd := tr.serveShadow(http.MethodPost, "/v1/networks", o.body)
		tr.rec.add(op, "serve.handler_create", root, hs, hd)
		ack := tr.shadowAck("create "+o.transient, http.StatusCreated)
		if tr.serveShadow(http.MethodDelete, "/v1/networks/"+o.transient, nil); tr.cap.status != http.StatusNoContent {
			tr.fail("shadow delete %s: status %d", o.transient, tr.cap.status)
		}
		if tls := tr.libCreate(op, "serve.handler_create", t, o.transient); tls != nil {
			tr.lockStep("create "+o.transient, l.cl.lastCreate.Version, l.cl.lastCreate.AssignmentHash, ack, tls)
		}
		tr.selfCreate = append(tr.selfCreate, hd-tr.childTime(mark, "serve.handler_create"))
	}
}

// resetCounters drops everything recorded so far (tenant creation and
// warm-up), so the reported numbers cover the traced phase only.
func (tr *tracer) resetCounters() {
	tr.traceCounts = traceCounts{probeBytes0: tr.probeFS.written.Load()}
	tr.rec.spans = tr.rec.spans[:0]
}

// baseline is what the untraced phase of a traced run measured.
type baseline struct {
	meanOpLatency time.Duration
	gcCount       uint32
	gcPauseMax    time.Duration
	heapPeak      uint64
	failed        int
	ops           int
}

// runBaseline runs the plain deployment alone for d: the reference the
// traced phase's op latency is compared with, and the phase the runtime.*
// metrics describe (in the traced phase three replicas share the heap).
func runBaseline(cfg runConfig, d time.Duration) (*baseline, error) {
	l, err := setUp(cfg, 0)
	if err != nil {
		return nil, err
	}
	defer l.close()
	runtime.GC()
	var m0, m runtime.MemStats
	runtime.ReadMemStats(&m0)
	b := &baseline{}
	var total time.Duration
	samples := 0
	n := cfg.w.cycleLen()
	for start := time.Now(); ; {
		for i := 0; i < n; i++ {
			if _, dur, ok := l.step(); ok {
				total += dur
				samples++
			}
		}
		runtime.ReadMemStats(&m)
		b.heapPeak = max(b.heapPeak, m.HeapInuse)
		if cfg.cyclesPerRound > 0 || time.Since(start) >= d {
			break
		}
	}
	b.gcCount = m.NumGC - m0.NumGC
	// PauseNs is a ring of the most recent pauses; GC k sits at (k-1) mod len.
	ring := uint32(len(m.PauseNs))
	for k := m.NumGC; k > m0.NumGC && k+ring > m.NumGC; k-- {
		b.gcPauseMax = max(b.gcPauseMax, time.Duration(m.PauseNs[(k-1)%ring]))
	}
	if samples > 0 {
		b.meanOpLatency = total / time.Duration(samples)
	}
	b.failed, b.ops = l.cl.failures, l.ops
	return b, nil
}

// runTraced is the traced run: a quarter of -seconds untraced for the
// baseline, the rest traced on the three replicas, then the one-shot probes.
// It reports the per-layer metrics and writes the spans to
// <outDir>/trace-<workload>.jsonl.
func runTraced(cfg runConfig, outDir string) (*report, error) {
	total := time.Duration(cfg.seconds * float64(time.Second))
	base, err := runBaseline(cfg, total/4)
	if err != nil {
		return nil, err
	}
	tr, err := newTracer(cfg)
	if err != nil {
		return nil, err
	}
	defer tr.close()
	tr.resetCounters()
	n := cfg.w.cycleLen()
	for start := time.Now(); ; {
		for i := 0; i < n; i++ {
			tr.step()
		}
		if cfg.cyclesPerRound > 0 || time.Since(start) >= total-total/4 {
			break
		}
	}
	tracePath := filepath.Join(outDir, "trace-"+cfg.w.name+".jsonl")
	if err := tr.rec.write(tracePath); err != nil {
		return nil, err
	}
	m := tr.layerMetrics(base)
	tr.errs = append(tr.errs, finalGates(tr.l)...)

	failed := tr.l.cl.failures + base.failed
	rep := &report{
		Correct:   failed == 0 && len(tr.errs) == 0,
		Attempted: tr.l.ops + base.ops + 2*len(tr.l.tenants),
		Failed:    failed,
		Metrics:   map[string]metricValue{},
		workload:  cfg.w.name,
		seed:      cfg.seed,
	}
	rep.notes = append(rep.notes, "  env: "+environment(cfg.workDir),
		fmt.Sprintf("  traced %d ops (%d spans -> %s), baseline %d ops", tr.rootOps, len(tr.rec.spans), tracePath, base.ops))
	if err := tr.l.cl.firstErr; err != nil {
		rep.notes = append(rep.notes, "  first failed op: "+err.Error())
	}
	for i, e := range tr.errs {
		if i == 5 {
			rep.notes = append(rep.notes, fmt.Sprintf("  ... and %d more", len(tr.errs)-i))
			break
		}
		rep.notes = append(rep.notes, "  GATE FAILED: "+e.Error())
	}
	for _, d := range perLayer {
		rep.Metrics[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return rep, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the recorded spans and counters into the per-layer
// metrics and runs the one-shot probes.
func (tr *tracer) layerMetrics(base *baseline) map[string]float64 {
	r := tr.rec
	m := map[string]float64{
		"netmodel.spec_decode_ms":      r.p50("netmodel.spec_decode"),
		"netmodel.delta_check_ms":      r.p50("netmodel.delta_check"),
		"core.optimize_ms":             r.p50("core.optimize"),
		"core.optimize_iterations":     ratio(float64(tr.optIters), float64(tr.optimizes)),
		"core.apply_ms":                r.p50("core.apply"),
		"core.reoptimize_ms":           r.p50("core.reoptimize"),
		"core.reoptimize_iterations":   ratio(float64(tr.reoptIters), float64(tr.reopts)),
		"core.dirty_nodes":             ratio(float64(tr.dirtyNodes), float64(tr.reopts)),
		"core.rebuilds":                float64(tr.rebuilds),
		"core.snapshot_ms":             r.p50("core.snapshot"),
		"serve.handler_create_ms":      r.p50("serve.handler_create"),
		"serve.handler_delta_ms":       r.p50("serve.handler_delta"),
		"serve.handler_read_cached_ms": r.p50("serve.handler_read_cached"),
		"serve.handler_read_fresh_ms":  r.p50("serve.handler_read_fresh"),
		"serve.handler_assess_ms":      r.p50("serve.handler_assess"),
		"serve.handler_metrics_ms":     r.p50("serve.handler_metrics"),
		"serve.self_delta_ms":          ms(quantile(tr.selfDelta, 0.5)),
		"serve.self_create_ms":         ms(quantile(tr.selfCreate, 0.5)),
		"serve.cache_hit_ratio":        ratio(float64(tr.cachedReads), float64(tr.reads)),
		"serve.cached_bytes":           float64(tr.shadow.CachedBytes()),
		"serve.read_resp_bytes":        ratio(float64(tr.readBytes), float64(tr.reads)),
		"serve.delta_p99_ms":           ms(quantile(tr.deltaLat, 0.99)),
		"serve.read_p99_ms":            ms(quantile(tr.readLat, 0.99)),
		"http.loopback_read_ms":        ms(quantile(tr.loopRead, 0.5)),
		"http.loopback_delta_ms":       ms(quantile(tr.loopDelta, 0.5)),
		"wal.encode_ms":                r.p50("wal.encode"),
		"wal.append_ms":                r.p50("wal.append"),
		"wal.snapshot_ms":              r.p50("wal.snapshot"),
		"wal.snapshots":                float64(tr.snapshots),
		"wal.bytes_per_record":         ratio(float64(tr.recBytes), float64(tr.records)),
		"wal.write_amp":                ratio(float64(tr.probeFS.written.Load()-tr.probeBytes0), float64(tr.deltaBytes)),
		"replic.apply_ms":              r.p50("replic.apply"),
		"replic.visible_lag_ms":        ms(quantile(tr.lag, 0.5)),
		"attacksim.compile_ms":         r.p50("attacksim.compile"),
		"attacksim.batch_ms":           r.p50("attacksim.batch"),
		"metrics.eval_ms":              r.p50("metrics.eval"),
		"runtime.gc_count":             float64(base.gcCount),
		"runtime.gc_pause_max_ms":      ms(base.gcPauseMax),
		"runtime.heap_peak_mb":         float64(base.heapPeak) / (1 << 20),
	}
	st := tr.l.st.srv.Stats()
	m["serve.rejected"] = float64(st.Rejected429 + st.Rejected503 + st.Timeout504)
	if tr.l.st.prim != nil {
		for _, f := range tr.l.st.prim.Followers() {
			m["replic.push_dropped"] += float64(f.Dropped)
		}
	}
	if base.meanOpLatency > 0 && tr.rootOps > 0 {
		m["trace.overhead_pct"] = (float64(tr.rootTotal)/float64(tr.rootOps)/float64(base.meanOpLatency) - 1) * 100
	}
	tr.probeSolvers(m)
	tr.probeRestart(m)
	tr.probeCatchUp(m)
	return m
}

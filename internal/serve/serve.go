// Package serve implements the serving plane of the system: a long-running,
// multi-tenant diversification service exposed over HTTP/JSON by cmd/divd.
//
// Each tenant network is a session: a live core.Optimizer whose built MRF
// stays resident between requests, so a network delta costs an incremental
// ApplyDelta + Reoptimize instead of a cold build + solve, and an attack
// assessment compiles the current assignment onto the batched attack engine.
// Sessions are held in a sharded store (hash of the session ID picks the
// shard; each shard is an independently locked map) so session lookup never
// contends globally.
//
// Concurrency model — three rules:
//
//  1. Single writer per session.  Everything that touches a session's
//     optimiser or network (create-solve, delta apply, metric computation,
//     campaign compilation) runs under the session's writer slot, acquired
//     through a context-aware semaphore so a queued writer respects the
//     request deadline instead of blocking forever.
//  2. Lock-free reads.  After every successful solve the session publishes an
//     immutable snapshot (assignment, energy, hash, version) through an
//     atomic pointer; GET /assignment serves straight from it and never
//     waits on a writer.  This is the serving-layer counterpart of
//     core.Optimizer.Snapshot.
//  3. Shared solve scheduler.  Heavy work (initial solves, re-optimise
//     steps, Monte-Carlo assessment batches, metric evaluations) additionally
//     acquires a grant from a scheduler shared across all sessions, so N
//     tenants posting deltas simultaneously cannot oversubscribe the machine.
//     The scheduler is a priority/aging queue keyed on a per-request cost
//     estimate (the tenant's host count): small tenants schedule ahead of
//     big ones, waiting promotes any job so nothing starves, and a running
//     solve yields its slot between solver steps (through the grant's
//     checkpoint, wired into the solve driver via core.Options.Checkpoint)
//     whenever cheaper work queues up — a million-host solve is a stream of
//     schedulable units, not a convoy head.  Grants are acquired after the
//     session slot (session → scheduler, always in that order) and the wait
//     is context-aware, so deadlines cut the queue, not just the solve.
//
// Determinism: for a fixed session seed the create solve, every delta
// re-optimisation and every assessment with a fixed request seed return
// byte-identical JSON apart from the wall_ms timing fields — the contract CI
// smoke tests pin (see docs/API.md).
//
// Shutdown: Drain makes every new state-changing request fail fast with 503
// while in-flight solves finish; cmd/divd pairs it with http.Server.Shutdown,
// which waits for the in-flight handlers to return.
package serve

import (
	"context"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"netdiversity/internal/core"
	"netdiversity/internal/netmodel"
	"netdiversity/internal/wal"
)

// Config tunes a Server.  The zero value serves with the documented defaults.
type Config struct {
	// Shards is the session-store shard count.  Default 8.
	Shards int
	// SolveWorkers is the solve scheduler's slot count: the number of
	// concurrently executing solves and assessment batches across all
	// sessions.  Default GOMAXPROCS.
	SolveWorkers int
	// MaxSessions bounds the number of live sessions.  Default 1024.
	MaxSessions int
	// RequestTimeout is the per-request deadline.  Requests may shorten it
	// with ?timeout_ms= but never extend it.  Default 30s.
	RequestTimeout time.Duration
	// MaxRequestBytes bounds any request body.  Default 8 MiB.
	MaxRequestBytes int64
	// SpecLimits bounds network specs accepted by the create endpoint.
	// Defaults: 10000 hosts, 200000 links, 20000 constraints, 32 services
	// per host, 64 candidates per service.
	SpecLimits netmodel.SpecLimits
	// DeltaLimits bounds deltas accepted by the delta endpoint.  Defaults:
	// 10000 ops per delta, host shape as SpecLimits.
	DeltaLimits netmodel.DeltaLimits
	// MaxAssessRuns caps the Monte-Carlo run count of one assessment.
	// Default 100000.
	MaxAssessRuns int
	// MaxIterations caps the per-session solver iteration budget a create
	// request may ask for.  Default 500.
	MaxIterations int
	// MaxCachedBytes bounds the total pre-encoded response bytes the
	// version-keyed read caches may hold across all sessions (see cache.go).
	// When the budget is exhausted, responses fall back to per-request
	// encoding.  Default 64 MiB.
	MaxCachedBytes int64
	// Persist enables the persistence plane: session state is journaled to
	// the manager's data directory and delta acks wait for the fsync
	// policy's durability point (see internal/wal and persist.go).  Nil
	// serves memory-only, exactly as before.
	Persist *wal.Manager
	// Replicator receives replication events (session created, record
	// committed, session deleted) under the session writer slot; nil
	// disables the replication plane.  See replica.go and internal/replic.
	Replicator Replicator
	// OnPromote is invoked by POST /v1/promote before sessions are made
	// writable — cmd/divd uses it to stop the follower's replication loop.
	OnPromote func()
	// Replication supplies the transport-side half of the healthz
	// replication block (follower lag, anti-entropy state); the server fills
	// in role and write-rejection counters itself.
	Replication func() *ReplicationStats
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.SolveWorkers <= 0 {
		c.SolveWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 8 << 20
	}
	if c.SpecLimits == (netmodel.SpecLimits{}) {
		c.SpecLimits = netmodel.SpecLimits{
			MaxHosts:             10000,
			MaxLinks:             200000,
			MaxConstraints:       20000,
			MaxServicesPerHost:   32,
			MaxChoicesPerService: 64,
		}
	}
	if c.DeltaLimits.MaxOps == 0 && c.DeltaLimits.Host == (netmodel.SpecLimits{}) {
		c.DeltaLimits = netmodel.DeltaLimits{MaxOps: 10000, Host: c.SpecLimits}
	}
	if c.MaxAssessRuns <= 0 {
		c.MaxAssessRuns = 100000
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 500
	}
	if c.MaxCachedBytes <= 0 {
		c.MaxCachedBytes = 64 << 20
	}
	return c
}

// Server is the diversification service: a session store, a solve scheduler
// and the HTTP handlers binding them.  Create one with New and mount Handler
// on an http.Server.
type Server struct {
	cfg      Config
	store    *store
	sched    *scheduler
	mux      *http.ServeMux
	draining atomic.Bool
	stats    serverStats
	// cachedBytes is the total charge of the encoded-response caches
	// across all sessions, bounded by Config.MaxCachedBytes.
	cachedBytes atomic.Int64
	// role and primaryURL carry the replication role (see replica.go);
	// writesRejected counts not_primary rejections for healthz.
	role           atomic.Int32
	primaryURL     atomic.Pointer[string]
	writesRejected atomic.Int64
}

// serverStats are the server's backpressure counters, incremented lock-free
// on the request path and exposed through Stats and /healthz so load
// generators (internal/slam) and operators can attribute client-side error
// rates to the server's admission decisions.
type serverStats struct {
	requests    atomic.Int64
	rejected429 atomic.Int64
	rejected503 atomic.Int64
	timeout504  atomic.Int64
}

// Stats is a point-in-time snapshot of the server's request counters.
type Stats struct {
	// Requests counts every request reaching the API mux since start.
	Requests int64 `json:"requests"`
	// Rejected429 counts session-limit rejections (HTTP 429,
	// too_many_sessions).
	Rejected429 int64 `json:"rejected_429"`
	// Rejected503 counts drain rejections (HTTP 503, draining).
	Rejected503 int64 `json:"rejected_503"`
	// Timeout504 counts request-deadline hits (HTTP 504, timeout).
	Timeout504 int64 `json:"timeout_504"`
}

// Stats returns the server's backpressure counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:    s.stats.requests.Load(),
		Rejected429: s.stats.rejected429.Load(),
		Rejected503: s.stats.rejected503.Load(),
		Timeout504:  s.stats.timeout504.Load(),
	}
}

// New creates a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		store: newStore(cfg.Shards, cfg.MaxSessions),
		sched: newScheduler(cfg.SolveWorkers),
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Handler returns the HTTP handler serving the v1 API, wrapped in the
// request-counting middleware feeding Stats.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.stats.requests.Add(1)
		s.mux.ServeHTTP(w, r)
	})
}

// Drain puts the server into shutdown mode: every subsequent state-changing
// request (create, deltas, assess, delete) is rejected with 503 while
// in-flight work completes and reads keep being served.  Pair it with
// http.Server.Shutdown, which waits for the in-flight handlers.
func (s *Server) Drain() { s.draining.Store(true) }

// Sessions returns the number of live sessions (exposed on /healthz).
func (s *Server) Sessions() int { return s.store.len() }

// createSession builds, registers and cold-solves a session — the
// construction path shared by the create endpoint and Preload; meta names the
// session and carries its solver knobs and serialized similarity spec.  The
// session is inserted into the store with its writer slot already held, so no
// other request can act on it before the first snapshot is published; on any
// failure it is retired again, and a writer that raced the rollback observes
// the closed flag instead of an orphan.
func (s *Server) createSession(ctx context.Context, meta *wal.SessionSnapshot,
	net *netmodel.Network, cs *netmodel.ConstraintSet) (*session, *snapshot, core.Result, error) {
	sess, err := s.adopt(meta, net, cs, nil)
	if err != nil {
		return nil, nil, core.Result{}, err
	}
	defer sess.unlock()
	if err := sess.attachOptimizer(); err != nil {
		return nil, nil, core.Result{}, err
	}
	if err := s.store.put(sess); err != nil {
		return nil, nil, core.Result{}, err
	}
	res, err := func() (core.Result, error) {
		done, err := s.admit(ctx, sess)
		if err != nil {
			return core.Result{}, err
		}
		defer done()
		return sess.opt.Optimize(ctx)
	}()
	if err != nil {
		s.retire(sess)
		return nil, nil, core.Result{}, err
	}
	snap := sess.buildSnapshot(1)
	var wsnap *wal.SessionSnapshot
	if s.cfg.Persist != nil || s.cfg.Replicator != nil {
		// The serialized snapshot feeds persistence and replication alike.
		wsnap = sess.walSnapshot(snap)
	}
	if s.cfg.Persist != nil {
		// The session exists once (and only once) its initial snapshot is on
		// disk: a create acked to the client survives an immediate crash.
		if sess.wlog, err = s.cfg.Persist.Create(wsnap); err != nil {
			s.retire(sess)
			return nil, nil, core.Result{}, persistFailed(err)
		}
	}
	published := sess.install(snap)
	if rep := s.cfg.Replicator; rep != nil {
		rep.SessionCreated(wsnap)
	}
	return sess, published, res, nil
}

// admit acquires a scheduler grant sized to the session's network and
// attaches it as the session's active checkpoint target, so the solve about
// to run yields at step granularity.  The returned cleanup detaches and
// releases the grant; callers defer it around the heavy work.
func (s *Server) admit(ctx context.Context, sess *session) (func(), error) {
	g, err := s.sched.acquire(ctx, sess.solveCost())
	if err != nil {
		return nil, err
	}
	sess.beginGrant(g)
	return func() { sess.endGrant(g) }, nil
}

// Preload creates and solves a session outside the HTTP surface — divd uses
// it to come up already serving the networks named by -preload — with the
// create endpoint's defaults (trws, the paper similarity tables).  The solve
// runs synchronously under the server's request timeout.
func (s *Server) Preload(id string, net *netmodel.Network, cs *netmodel.ConstraintSet, seed int64) error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
	defer cancel()
	_, _, _, err := s.createSession(ctx, &wal.SessionSnapshot{ID: id, Solver: "trws", Seed: seed}, net, cs)
	return err
}

package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"netdiversity/internal/core"
	"netdiversity/internal/netmodel"
	"netdiversity/internal/vulnsim"
	"netdiversity/internal/wal"
)

// session is one tenant network: a live optimiser plus the serving-side
// bookkeeping.  All optimiser/network access runs under the writer slot
// (acquired with lock); readers are served from the published snapshot and
// never take the slot.
type session struct {
	id     string
	solver string
	seed   int64

	// writer is the session's single-writer slot: a one-token semaphore
	// instead of a sync.Mutex so queued writers can honour request
	// deadlines.
	writer chan struct{}

	// wlog is the session's write-ahead log handle when the server runs
	// with persistence (nil otherwise).  Guarded by the writer slot: every
	// append and compaction happens on the publish path, which the slot
	// already serialises.
	wlog *wal.Log

	// simRaw is the serialized similarity spec the session was created with
	// (empty for the paper default), kept so snapshots carry it verbatim.
	simRaw json.RawMessage

	// maxIter is the session's solver iteration budget, journaled in
	// snapshots so a recovered session solves with the same knobs.
	maxIter int

	// pendingJournal holds deltas that mutated the network but are not yet
	// covered by a journaled record — a batch whose re-optimisation timed
	// out mid-solve.  The next successful publish folds them into its
	// record so replay reconstructs the full network history.  Guarded by
	// the writer slot.
	pendingJournal []netmodel.Delta

	// opt, net and sim are guarded by the writer slot.  opt is nil for a
	// replica session on a follower: such sessions are advanced exclusively
	// by deterministic patch replay (Server.ReplicaApply) and gain an
	// optimiser only at promotion.
	opt *core.Optimizer
	net *netmodel.Network
	sim *vulnsim.SimilarityTable

	// cs is the session's constraint set (nil or empty when unconstrained),
	// kept on the session so snapshot serialization works without an
	// optimiser — replica sessions have none.  Guarded by the writer slot.
	cs *netmodel.ConstraintSet

	// replicated marks a session on a server with a Replicator configured:
	// un-journaled delta batches are remembered even in memory-only mode so
	// replication records always carry the full network history.
	replicated bool

	// closed marks a session that left the store (retire, or a replica full
	// sync swapping in its successor).  Guarded by the writer slot: a writer
	// that acquires the slot afterwards observes it and treats the session as
	// gone instead of acknowledging work on an orphan.
	closed bool

	// pendingReopt marks a delta that was applied to the network but whose
	// re-optimisation failed (deadline, cancellation): the optimiser keeps
	// serving the previous assignment, and the next slot holder that needs
	// network/assignment consistency (delta, metrics, assess) re-optimises
	// lazily before proceeding.  Guarded by the writer slot.
	pendingReopt bool

	// metricsCache memoises the last metrics computation; valid only for the
	// same snapshot version and entry/target pair.  Guarded by the writer
	// slot.
	metricsCache *MetricsResponse

	// deltas is the pending coalesced-delta queue: requests enqueue here
	// before competing for the writer slot, and the slot holder drains the
	// whole queue into one batch apply + re-solve (see coalesce.go).
	// batchScratch is the leader's reusable apply-slice backing array,
	// guarded by the writer slot like every other leader-only state.
	deltas       deltaQueue
	batchScratch []netmodel.Delta

	// assessCache memoises the last compiled attack campaign; valid only
	// for the same snapshot version and campaign shape.  Guarded by the
	// writer slot (compilation runs under it).
	assessCache *assessCacheEntry

	// encSummary/encAssignment/encMetrics are the version-keyed pre-encoded
	// response bodies of the session's read endpoints (see cache.go), read
	// and replaced lock-free; cachedBytes is the session's charge against
	// the server-wide cache budget.
	encSummary    atomic.Pointer[encEntry]
	encAssignment atomic.Pointer[encEntry]
	encMetrics    atomic.Pointer[encEntry]
	cachedBytes   atomic.Int64

	// snap is the immutable published state read lock-free by GET handlers.
	// Written only by the slot holder after a successful solve.
	snap atomic.Pointer[snapshot]

	// activeGrant is the scheduler admission of the session's in-flight
	// heavy work, read by the checkpoint the optimiser's solves call between
	// steps.  Stored/cleared by the writer-slot holder around each solve; an
	// atomic pointer (not writer-guarded state) because the optimiser may
	// invoke the checkpoint from solver worker goroutines.
	activeGrant atomic.Pointer[grant]
}

// checkpoint is the session's solve checkpoint, wired into core.Options by
// attachOptimizer: it forwards to the scheduler grant active for the
// current solve, giving the scheduler a preemption point between solver
// steps.  Outside any grant (nothing admitted) it only propagates context
// cancellation.
func (s *session) checkpoint(ctx context.Context) error {
	if g := s.activeGrant.Load(); g != nil {
		return g.checkpoint(ctx)
	}
	return ctx.Err()
}

// beginGrant attaches the scheduler grant the next solve reports to.
func (s *session) beginGrant(g *grant) { s.activeGrant.Store(g) }

// endGrant detaches and releases the active grant.
func (s *session) endGrant(g *grant) {
	s.activeGrant.Store(nil)
	g.release()
}

// solveCost is the scheduler cost estimate for this session's heavy work:
// the host count, a monotone proxy for MRF size and hence solve time.
func (s *session) solveCost() float64 { return float64(s.net.NumHosts()) }

// snapshot is the immutable published state of a session.  The assignment is
// sealed (netmodel.Assignment.Seal): its mutators panic and its sorted host
// order was built before it got here, so the optimiser, the WAL, replication
// and any number of lock-free readers share the one value without a copy.
type snapshot struct {
	version    uint64
	energy     float64
	assignment *netmodel.Assignment
	hash       string
	// hosts and links are the network's shape at this version, stamped by
	// install.
	hosts int
	links int
}

// lock acquires the session's writer slot, honouring the context deadline.
func (s *session) lock(ctx context.Context) error {
	select {
	case s.writer <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// unlock releases the writer slot.
func (s *session) unlock() { <-s.writer }

// buildSnapshot computes the next published snapshot without installing it,
// advancing the version by n — the number of accepted deltas the snapshot
// folds in, so a coalesced batch reaches the same final version as the same
// deltas applied serially and the version stays a monotone write counter
// either way.  Must be called by the writer-slot holder after a successful
// solve.  The assignment is core.Optimizer.Snapshot's sealed solution itself:
// the optimiser derives its next solution from it and never writes to it, so
// lock-free readers are safe by construction, not by copy.  Build and install
// are deliberately separate steps with no combined shortcut: the persistence
// plane journals the state in between (publish), so lock-free readers only
// ever observe durably-acked state.
func (s *session) buildSnapshot(n uint64) snapshot {
	a, energy, ok := s.opt.Snapshot()
	if !ok {
		// Unreachable: publish follows a successful Optimize/Reoptimize.
		a, energy = netmodel.NewAssignment().Seal(), 0
	}
	version := n
	if prev := s.snap.Load(); prev != nil {
		version = prev.version + n
	}
	return snapshot{version: version, energy: energy, assignment: a, hash: a.Hash()}
}

// install publishes a built snapshot to lock-free readers, stamping it with
// the network's current shape, and returns what it published.  Must be called
// by the writer-slot holder, after the snapshot's WAL record (if any) is
// durable and the network has reached the state the snapshot describes.
func (s *session) install(snap snapshot) *snapshot {
	snap.hosts, snap.links = s.net.NumHosts(), s.net.NumLinks()
	s.snap.Store(&snap)
	return &snap
}

// adopt is the one session constructor.  Every way a session comes to exist —
// create and preload, crash recovery, a replica full sync — hands it the
// session's serialized identity, the network built from it and the session's
// log handle (nil until the session has on-disk state); the paths differ only
// in what they do next.  A meta that carries an assignment (all but the cold
// create, whose first solve is still to run) is published on the spot, so a
// session that enters the store this way is never seen unpublished.  The
// session is returned with its writer slot held: the caller releases it once
// the session is in the store and fully wired.
func (s *Server) adopt(meta *wal.SessionSnapshot, net *netmodel.Network, cs *netmodel.ConstraintSet, wlog *wal.Log) (*session, error) {
	if !validSessionID(meta.ID) {
		return nil, fmt.Errorf("invalid session id %q", meta.ID)
	}
	var simSpec *SimilaritySpec
	if len(meta.Similarity) > 0 {
		simSpec = &SimilaritySpec{}
		if err := json.Unmarshal(meta.Similarity, simSpec); err != nil {
			return nil, fmt.Errorf("decode similarity spec: %w", err)
		}
	}
	sim, err := buildSimilarity(simSpec, net)
	if err != nil {
		return nil, err
	}
	sess := &session{
		id:         meta.ID,
		solver:     meta.Solver,
		seed:       meta.Seed,
		maxIter:    meta.MaxIterations,
		simRaw:     meta.Similarity,
		writer:     make(chan struct{}, 1),
		wlog:       wlog,
		net:        net,
		cs:         cs,
		sim:        sim,
		replicated: s.cfg.Replicator != nil,
	}
	sess.writer <- struct{}{}
	if meta.Assignment != nil {
		sess.install(snapshot{
			version:    meta.Version,
			energy:     meta.Energy,
			assignment: meta.Assignment.Seal(),
			hash:       meta.Hash,
		})
	}
	return sess, nil
}

// attachOptimizer makes the session writable: an optimiser is built around
// the session's network with its journaled solver knobs and, when the session
// is already published, seeded with the published assignment — no re-solve,
// the session keeps serving exactly the state it recovered or replicated.
// Every solve the optimiser ever runs reports to the scheduler grant active at
// that moment (checkpoint), so long solves yield to cheaper tenants at
// solver-step granularity.  Called under the writer slot.
func (s *session) attachOptimizer() error {
	solver, err := core.ParseSolver(s.solver)
	if err != nil {
		return err
	}
	opt, err := core.NewOptimizer(s.net, s.sim, core.Options{
		Solver:        solver,
		MaxIterations: s.maxIter,
		Seed:          s.seed,
		Checkpoint:    s.checkpoint,
	})
	if err != nil {
		return err
	}
	if s.cs != nil && !s.cs.Empty() {
		if err := opt.SetConstraints(s.cs); err != nil {
			return err
		}
	}
	if snap := s.snap.Load(); snap != nil {
		opt.RestoreAssignment(snap.assignment, snap.energy)
	}
	s.opt = opt
	return nil
}

// walSnapshot serializes the session's full state at a published snapshot —
// the payload of the create-time snapshot, every compaction and a replication
// full sync.  Called under the writer slot; snap.assignment is immutable
// post-build, so sharing the pointer with the marshaller is safe.
func (s *session) walSnapshot(snap snapshot) *wal.SessionSnapshot {
	return &wal.SessionSnapshot{
		ID:            s.id,
		Solver:        s.solver,
		Seed:          s.seed,
		MaxIterations: s.maxIter,
		Version:       snap.version,
		Energy:        snap.energy,
		Hash:          snap.hash,
		Spec:          netmodel.ToSpec(s.net, s.cs),
		Assignment:    snap.assignment,
		Similarity:    s.simRaw,
	}
}

// publish commits one record — the only way a published session advances.
// The order is the durability contract: journal → install → replicate.  The
// record must be in the session's log (per the fsync policy) before the
// snapshot becomes visible or any ack goes out; on an append failure nothing
// was touched — readers keep the previous state and the manager is degraded.
// A primary passes a nil mutate (its network moved before the solve); a
// follower passes the record's network replay, which has to sit between the
// append and the compaction because the compacted snapshot serializes
// sess.net.  Compaction is best effort: a failure degrades the manager but
// does not lose the record the caller is about to ack.  rec is nil only on a
// memory-only server without a Replicator.  Called under the writer slot.
func (s *Server) publish(sess *session, rec *wal.Record, next snapshot, mutate func() error) error {
	if sess.wlog != nil {
		if err := sess.wlog.Append(rec); err != nil {
			return persistFailed(err)
		}
	}
	if mutate != nil {
		if err := mutate(); err != nil {
			return err
		}
	}
	// The record covers every delta that reached the network, including a
	// timed-out batch's (pendingJournal): the session is consistent again.
	sess.pendingJournal = nil
	sess.pendingReopt = false
	if sess.wlog != nil && sess.wlog.ShouldSnapshot() {
		sess.wlog.WriteSnapshot(sess.walSnapshot(next)) //nolint:errcheck // degradation recorded by the manager
	}
	sess.install(next)
	if rep := s.cfg.Replicator; rep != nil && rec != nil {
		rep.RecordCommitted(sess.id, rec)
	}
	return nil
}

// retire takes a session out of service: closed, out of the store, its cache
// charge returned, its on-disk state removed and the Replicator told.
// Everything runs under the session's writer slot (held by the caller), so an
// in-flight write either completed before or observes closed after, and a
// crash between an acked DELETE and the directory removal at worst resurrects
// the session — never the other way round.  Idempotent.
func (s *Server) retire(sess *session) {
	if sess.closed {
		return
	}
	sess.closed = true
	s.store.remove(sess.id)
	s.dropCaches(sess)
	if s.cfg.Persist != nil {
		s.cfg.Persist.Remove(sess.id) //nolint:errcheck // failure degrades the manager
	}
	if rep := s.cfg.Replicator; rep != nil {
		rep.SessionDeleted(sess.id)
	}
}

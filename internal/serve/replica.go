package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"netdiversity/internal/core"
	"netdiversity/internal/netmodel"
	"netdiversity/internal/wal"
)

// Replica integration: a server can run as a follower, holding sessions with
// no optimiser that are advanced exclusively through deterministic patch
// replay of the primary's WAL records (never re-solving — the same contract
// as crash recovery).  Followers serve every read endpoint from their local
// snapshots and reject writes with a not_primary redirect; Promote turns a
// caught-up follower into a writable primary by building optimisers around
// the replicated state.  The replication transport itself lives in
// internal/replic; this file is the serving-plane surface it drives.

// Server roles.  A server is born a primary (the historical behaviour);
// SetFollower flips it before serving, Promote flips it back at failover.
const (
	rolePrimary int32 = iota
	roleFollower
)

// Replicator receives the serving plane's replication events, invoked under
// the session's writer slot immediately after the state became visible (and,
// in persist mode, durable) — so per-session events arrive in commit order.
// Implemented by replic.Primary; every hook must be non-blocking.
type Replicator interface {
	// SessionCreated reports a session published at the snapshot's state:
	// create, preload, recovery, or replica full-sync.
	SessionCreated(snap *wal.SessionSnapshot)
	// RecordCommitted reports one committed record: a landed delta batch, a
	// lazy heal, or a replica apply.
	RecordCommitted(id string, rec *wal.Record)
	// SessionDeleted reports a session removed from the store.
	SessionDeleted(id string)
}

// errNotReplica is returned by ReplicaApply for sessions that have a live
// optimiser: a writable session must never be advanced by replay.
var errNotReplica = errors.New("serve: session is writable; refusing replica apply")

// SetFollower puts the server into follower mode replicating from the
// primary at the given base URL.  Call before serving traffic.
func (s *Server) SetFollower(primaryURL string) {
	s.primaryURL.Store(&primaryURL)
	s.role.Store(roleFollower)
}

// Role returns "primary" or "follower".
func (s *Server) Role() string {
	if s.role.Load() == roleFollower {
		return "follower"
	}
	return "primary"
}

// rejectNotPrimary fails state-changing requests on a follower with a 307
// redirect at the primary (Location carries the primary's URL for the same
// path) and the stable error code not_primary, counting the rejection for
// healthz.
func (s *Server) rejectNotPrimary(w http.ResponseWriter, r *http.Request) bool {
	if s.role.Load() != roleFollower {
		return false
	}
	s.writesRejected.Add(1)
	primary := ""
	if p := s.primaryURL.Load(); p != nil {
		primary = *p
	}
	if primary != "" {
		w.Header().Set("Location", primary+r.URL.RequestURI())
	}
	writeError(w, http.StatusTemporaryRedirect, "not_primary",
		"this node is a replication follower; retry the write against the primary")
	return true
}

// replicaCtx bounds the internal locking of replica operations, which run on
// replication goroutines with no request deadline of their own.
func (s *Server) replicaCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
}

// ReplicaCreate installs (or replaces) a session from a full primary
// snapshot: network and constraints are rebuilt from the journaled spec, the
// assignment is verified against the snapshot hash and the network shape,
// and the published state appears exactly as the primary served it — no
// optimiser, no solve.  With persistence enabled the snapshot is journaled
// first, so a follower restart recovers its replicas locally.
func (s *Server) ReplicaCreate(snap *wal.SessionSnapshot) error {
	if !validSessionID(snap.ID) {
		return fmt.Errorf("serve: invalid replica session id %q", snap.ID)
	}
	if snap.Assignment == nil {
		return fmt.Errorf("serve: replica snapshot %s carries no assignment", snap.ID)
	}
	if got := snap.Assignment.Hash(); got != snap.Hash {
		return fmt.Errorf("serve: replica snapshot %s assignment hash %s != journaled %s", snap.ID, got, snap.Hash)
	}
	net, cs, err := netmodel.FromSpec(snap.Spec)
	if err != nil {
		return fmt.Errorf("serve: replica snapshot %s: %w", snap.ID, err)
	}
	if err := snap.Assignment.ValidateFor(net); err != nil {
		return fmt.Errorf("serve: replica snapshot %s: %w", snap.ID, err)
	}
	var simSpec *SimilaritySpec
	if len(snap.Similarity) > 0 {
		simSpec = &SimilaritySpec{}
		if err := json.Unmarshal(snap.Similarity, simSpec); err != nil {
			return fmt.Errorf("serve: replica snapshot %s: decode similarity spec: %w", snap.ID, err)
		}
	}
	sim, err := buildSimilarity(simSpec, net)
	if err != nil {
		return fmt.Errorf("serve: replica snapshot %s: %w", snap.ID, err)
	}
	sess := &session{
		id:      snap.ID,
		solver:  snap.Solver,
		seed:    snap.Seed,
		writer:  make(chan struct{}, 1),
		net:     net,
		cs:      cs,
		sim:     sim,
		simSpec: simSpec,
		maxIter: snap.MaxIterations,
	}
	sess.replicated = s.cfg.Replicator != nil
	sess.writer <- struct{}{} // pre-held until the replica is in the store
	defer sess.unlock()
	sess.install(snapshot{
		version:    snap.Version,
		energy:     snap.Energy,
		assignment: snap.Assignment.Clone(),
		hash:       snap.Hash,
		hosts:      net.NumHosts(),
		links:      net.NumLinks(),
	})
	// Full sync replaces whatever incarnation is live.  The old one is closed
	// under its writer slot exactly like DELETE, so in-flight work observes
	// closed — but it stays in the store, serving its last snapshot to
	// lock-free readers, until the replacement (snapshot already installed)
	// takes its place in one store operation: a read of a session that exists
	// on both nodes never sees it missing or unpublished in between.
	old, live := s.store.get(snap.ID)
	if live {
		ctx, cancel := s.replicaCtx()
		err := old.lock(ctx)
		cancel()
		if err != nil {
			return err
		}
		defer old.unlock()
		// Closed means a DELETE or another full sync won the slot first and
		// already took it out of the store: insert like a new session.
		live = !old.closed
	}
	if live {
		old.closed = true
		if s.cfg.Persist != nil {
			s.cfg.Persist.Remove(old.id) //nolint:errcheck // failure degrades the manager
		}
	} else if err := s.store.put(sess); err != nil {
		return fmt.Errorf("serve: replica session %s: %w", snap.ID, err)
	}
	if s.cfg.Persist != nil {
		l, err := s.cfg.Persist.Create(snap)
		if err != nil {
			sess.closed = true
			s.store.remove(snap.ID)
			if live {
				s.dropCaches(old)
				if rep := s.cfg.Replicator; rep != nil {
					rep.SessionDeleted(snap.ID)
				}
			}
			return persistFailed(err)
		}
		sess.wlog = l
	}
	if live {
		s.store.replace(sess)
		s.dropCaches(old)
	}
	if rep := s.cfg.Replicator; rep != nil {
		rep.SessionCreated(snap)
	}
	return nil
}

// ReplicaApply advances a replica session by one committed record through
// the deterministic replay path: the record's deltas mutate the network, the
// assignment patch folds onto a clone of the published assignment, and the
// result must reproduce the record's hash before anything becomes visible —
// the same end-to-end check recovery applies to the on-disk log.  A record
// that fails replay poisons the session (it is dropped, forcing the next
// anti-entropy round to full-sync); a chain gap is a plain error the caller
// repairs by fetching the missing records.
func (s *Server) ReplicaApply(id string, rec *wal.Record) error {
	sess, ok := s.store.get(id)
	if !ok {
		return fmt.Errorf("serve: unknown replica session %q", id)
	}
	ctx, cancel := s.replicaCtx()
	defer cancel()
	if err := sess.lock(ctx); err != nil {
		return err
	}
	defer sess.unlock()
	if sess.closed {
		return errSessionClosed
	}
	if sess.opt != nil {
		return errNotReplica
	}
	snap := sess.snap.Load()
	if snap == nil || rec.PrevVersion != snap.version {
		have := uint64(0)
		if snap != nil {
			have = snap.version
		}
		return fmt.Errorf("serve: replica %s record chains from %d, replica is at %d", id, rec.PrevVersion, have)
	}
	// From the first delta the network is mutating: any failure from here on
	// leaves the replica inconsistent, so the session is dropped and the
	// caller resyncs from a snapshot.
	poison := func(err error) error {
		sess.closed = true
		s.store.remove(sess.id)
		s.dropCaches(sess)
		if s.cfg.Persist != nil {
			s.cfg.Persist.Remove(sess.id) //nolint:errcheck // failure degrades the manager
		}
		if rep := s.cfg.Replicator; rep != nil {
			rep.SessionDeleted(sess.id)
		}
		return err
	}
	for i, d := range rec.Deltas {
		if err := d.Apply(sess.net); err != nil {
			return poison(fmt.Errorf("serve: replica %s record %d delta %d: %w", id, rec.Version, i, err))
		}
	}
	a := snap.assignment.Clone()
	a.ApplyPatch(rec.Changed, rec.Removed)
	if got := a.Hash(); got != rec.Hash {
		return poison(fmt.Errorf("serve: replica %s record %d replayed hash %s != journaled %s", id, rec.Version, got, rec.Hash))
	}
	next := snapshot{
		version:    rec.Version,
		energy:     rec.Energy,
		assignment: a,
		hash:       rec.Hash,
		hosts:      sess.net.NumHosts(),
		links:      sess.net.NumLinks(),
	}
	if sess.wlog != nil {
		// Durability before visibility, exactly like the primary's publish:
		// the identical record lands in the follower's own log, so a follower
		// restart recovers to the same replicated state.
		if err := sess.wlog.Append(rec); err != nil {
			return persistFailed(err)
		}
		if sess.wlog.ShouldSnapshot() {
			if wsnap, err := sess.walSnapshot(next); err == nil {
				sess.wlog.WriteSnapshot(wsnap) //nolint:errcheck // degradation recorded by the manager
			}
		}
	}
	sess.install(next)
	if rep := s.cfg.Replicator; rep != nil {
		rep.RecordCommitted(sess.id, rec)
	}
	return nil
}

// ReplicaDelete removes a session on a follower (the primary deleted it, or
// a full sync is replacing it).  Unknown sessions are a no-op.
func (s *Server) ReplicaDelete(id string) error {
	sess, ok := s.store.get(id)
	if !ok {
		return nil
	}
	ctx, cancel := s.replicaCtx()
	defer cancel()
	if err := sess.lock(ctx); err != nil {
		return err
	}
	if !sess.closed {
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
	sess.unlock()
	return nil
}

// ReplicaVersion reports a session's published version and hash — the
// follower's contiguously applied floor for anti-entropy.
func (s *Server) ReplicaVersion(id string) (uint64, string, bool) {
	sess, ok := s.store.get(id)
	if !ok {
		return 0, "", false
	}
	snap := sess.snap.Load()
	if snap == nil {
		return 0, "", false
	}
	return snap.version, snap.hash, true
}

// SessionIDs returns the live session IDs in sorted order.
func (s *Server) SessionIDs() []string {
	sessions := s.store.list()
	out := make([]string, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, sess.id)
	}
	return out
}

// CurrentSnapshot serializes a session's full published state — the payload
// of a replication full sync.  It runs under the writer slot (the spec
// serialization reads the network) against the currently published snapshot.
func (s *Server) CurrentSnapshot(id string) (*wal.SessionSnapshot, error) {
	sess, ok := s.store.get(id)
	if !ok {
		return nil, fmt.Errorf("serve: unknown session %q", id)
	}
	ctx, cancel := s.replicaCtx()
	defer cancel()
	if err := sess.lock(ctx); err != nil {
		return nil, err
	}
	defer sess.unlock()
	if sess.closed {
		return nil, errSessionClosed
	}
	snap := sess.snap.Load()
	if snap == nil {
		return nil, fmt.Errorf("serve: session %q has not published yet", id)
	}
	return sess.walSnapshot(*snap)
}

// RestoreReplica registers a session recovered from a follower's local WAL
// without building an optimiser: the replica keeps serving the recovered
// snapshot and stays advanceable by ReplicaApply.  The follower counterpart
// of Restore, used by divd boot when -follow is set.
func (s *Server) RestoreReplica(rec *wal.Recovered) error {
	meta := rec.Snapshot
	if !validSessionID(meta.ID) {
		return fmt.Errorf("serve: invalid recovered session id %q", meta.ID)
	}
	var simSpec *SimilaritySpec
	if len(meta.Similarity) > 0 {
		simSpec = &SimilaritySpec{}
		if err := json.Unmarshal(meta.Similarity, simSpec); err != nil {
			return fmt.Errorf("serve: session %s: decode similarity spec: %w", meta.ID, err)
		}
	}
	sim, err := buildSimilarity(simSpec, rec.Net)
	if err != nil {
		return fmt.Errorf("serve: session %s: %w", meta.ID, err)
	}
	sess := &session{
		id:      meta.ID,
		solver:  meta.Solver,
		seed:    meta.Seed,
		writer:  make(chan struct{}, 1),
		net:     rec.Net,
		cs:      rec.Constraints,
		sim:     sim,
		simSpec: simSpec,
		maxIter: meta.MaxIterations,
		wlog:    rec.Log,
	}
	sess.replicated = s.cfg.Replicator != nil
	sess.writer <- struct{}{} // pre-held until the recovered snapshot is published
	if err := s.store.put(sess); err != nil {
		sess.unlock()
		return fmt.Errorf("serve: session %s: %w", meta.ID, err)
	}
	sess.install(snapshot{
		version:    meta.Version,
		energy:     meta.Energy,
		assignment: meta.Assignment.Clone(),
		hash:       meta.Hash,
		hosts:      rec.Net.NumHosts(),
		links:      rec.Net.NumLinks(),
	})
	if rep := s.cfg.Replicator; rep != nil {
		rep.SessionCreated(meta)
	}
	sess.unlock()
	return nil
}

// Promote turns a follower into a writable primary: every replica session
// gets an optimiser rebuilt around its replicated network and seeded with
// the replicated assignment (no re-solve — the promoted node serves exactly
// the state it replicated), and the role flips so writes are accepted.
// Returns the number of sessions promoted.  Idempotent on a primary.
func (s *Server) Promote() (int, error) {
	promoted := 0
	for _, sess := range s.store.list() {
		ctx, cancel := s.replicaCtx()
		err := sess.lock(ctx)
		cancel()
		if err != nil {
			return promoted, err
		}
		err = func() error {
			defer sess.unlock()
			if sess.closed || sess.opt != nil {
				return nil
			}
			solver, err := core.ParseSolver(sess.solver)
			if err != nil {
				return fmt.Errorf("serve: promote %s: %w", sess.id, err)
			}
			opts := core.Options{
				Solver:        solver,
				MaxIterations: sess.maxIter,
				Seed:          sess.seed,
				Checkpoint:    sess.checkpoint,
			}
			opt, err := core.NewOptimizer(sess.net, sess.sim, opts)
			if err != nil {
				return fmt.Errorf("serve: promote %s: %w", sess.id, err)
			}
			if sess.cs != nil && !sess.cs.Empty() {
				if err := opt.SetConstraints(sess.cs); err != nil {
					return fmt.Errorf("serve: promote %s: %w", sess.id, err)
				}
			}
			snap := sess.snap.Load()
			if snap != nil {
				opt.RestoreAssignment(snap.assignment.Clone(), snap.energy)
			}
			sess.opt = opt
			promoted++
			return nil
		}()
		if err != nil {
			return promoted, err
		}
	}
	s.role.Store(rolePrimary)
	return promoted, nil
}

// handlePromote implements POST /v1/promote: stop following (via the
// configured OnPromote hook) and make every replica session writable.  409
// on a node that is already primary.
func (s *Server) handlePromote(w http.ResponseWriter, _ *http.Request) {
	if s.role.Load() != roleFollower {
		writeError(w, http.StatusConflict, "conflict", "node is already primary")
		return
	}
	// Stop the follower loop first so no replica apply races the optimiser
	// builds; in-flight applies finish under their writer slots either way.
	if s.cfg.OnPromote != nil {
		s.cfg.OnPromote()
	}
	n, err := s.Promote()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, PromoteResponse{Role: s.Role(), Sessions: n})
}

// replicationHealth assembles the healthz replication block.
func (s *Server) replicationHealth() *ReplicationStats {
	var rs *ReplicationStats
	if s.cfg.Replication != nil {
		rs = s.cfg.Replication()
	}
	if rs == nil {
		rs = &ReplicationStats{}
	}
	rs.Role = s.Role()
	if p := s.primaryURL.Load(); p != nil {
		rs.Primary = *p
	}
	rs.WritesRejected = s.writesRejected.Load()
	return rs
}

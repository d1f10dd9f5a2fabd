package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

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
// first, so a follower restart recovers its replicas locally; a degraded
// node refuses up front and keeps serving the replica it has.
func (s *Server) ReplicaCreate(snap *wal.SessionSnapshot) error {
	if snap.Assignment == nil {
		return fmt.Errorf("serve: replica snapshot %s carries no assignment", snap.ID)
	}
	// The decoded assignment is sealed before anything else looks at it: adopt
	// publishes it to lock-free readers as is.
	if got := snap.Assignment.Seal().Hash(); got != snap.Hash {
		return fmt.Errorf("serve: replica snapshot %s assignment hash %s != journaled %s", snap.ID, got, snap.Hash)
	}
	net, cs, err := netmodel.FromSpec(snap.Spec)
	if err != nil {
		return fmt.Errorf("serve: replica snapshot %s: %w", snap.ID, err)
	}
	if err := snap.Assignment.ValidateFor(net); err != nil {
		return fmt.Errorf("serve: replica snapshot %s: %w", snap.ID, err)
	}
	if s.cfg.Persist != nil && s.cfg.Persist.Degraded() {
		return fmt.Errorf("serve: replica snapshot %s: %w", snap.ID, wal.ErrDegraded)
	}
	sess, err := s.adopt(snap, net, cs, nil)
	if err != nil {
		return fmt.Errorf("serve: replica snapshot %s: %w", snap.ID, err)
	}
	defer sess.unlock()
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
	// current is the incarnation holding the store entry until the swap.
	current := old
	if !live {
		if err := s.store.put(sess); err != nil {
			return fmt.Errorf("serve: replica session %s: %w", snap.ID, err)
		}
		current = sess
	}
	if s.cfg.Persist != nil {
		if live {
			// The old incarnation's log handle must be closed before Create
			// registers the new one under the same ID, or its open segment
			// leaks.
			s.cfg.Persist.Remove(old.id) //nolint:errcheck // failure degrades the manager
		}
		l, err := s.cfg.Persist.Create(snap)
		if err != nil {
			// Neither incarnation has on-disk state any more.
			s.retire(current)
			return persistFailed(err)
		}
		sess.wlog = l
	}
	if live {
		old.closed = true
		s.store.replace(sess)
		s.dropCaches(old)
	}
	if rep := s.cfg.Replicator; rep != nil {
		rep.SessionCreated(snap)
	}
	return nil
}

// ReplicaApply advances a replica session by one committed record through
// the deterministic replay path, in the order verify → journal → mutate →
// install.  The next assignment is derived from the published one (which it
// shares every untouched host with and never modifies) and must reproduce the
// record's hash — the same end-to-end check recovery applies to the on-disk
// log, through the same Record.Patch — before anything is touched, so a
// chain gap (the caller fetches the missing records), a hash mismatch (the
// caller resyncs) and a failed append (the node is degraded) all leave the
// replica serving exactly what it served.  Only then do the record's deltas
// mutate the network; a failure there leaves it inconsistent with a record
// already journaled, so the session is retired and the next anti-entropy
// round full-syncs it.
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
	if rec.PrevVersion != snap.version {
		return fmt.Errorf("serve: replica %s record chains from %d, replica is at %d", id, rec.PrevVersion, snap.version)
	}
	a, err := rec.Patch(snap.assignment)
	if err != nil {
		return fmt.Errorf("serve: replica %s: %w", id, err)
	}
	next := snapshot{version: rec.Version, energy: rec.Energy, assignment: a, hash: rec.Hash}
	return s.publish(sess, rec, next, func() error {
		if err := rec.ApplyDeltas(sess.net); err != nil {
			s.retire(sess)
			return fmt.Errorf("serve: replica %s: %w", id, err)
		}
		return nil
	})
}

// ReplicaDelete removes a session on a follower (the primary deleted it).
// Unknown sessions are a no-op.
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
	s.retire(sess)
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
	return sess.walSnapshot(*snap), nil
}

// Promote turns a follower into a writable primary: every replica session
// gets its optimiser (attachOptimizer — the promoted node serves exactly the
// state it replicated), and the role flips so writes are accepted.  Returns
// the number of sessions promoted.  Idempotent on a primary.
func (s *Server) Promote() (int, error) {
	promoted := 0
	for _, sess := range s.store.list() {
		ctx, cancel := s.replicaCtx()
		err := sess.lock(ctx)
		cancel()
		if err != nil {
			return promoted, err
		}
		replica := !sess.closed && sess.opt == nil
		if replica {
			err = sess.attachOptimizer()
		}
		sess.unlock()
		if err != nil {
			return promoted, fmt.Errorf("serve: promote %s: %w", sess.id, err)
		}
		if replica {
			promoted++
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

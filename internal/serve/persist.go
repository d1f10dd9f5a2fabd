package serve

import (
	"errors"
	"fmt"
	"net/http"

	"netdiversity/internal/netmodel"
	"netdiversity/internal/wal"
)

// Persistence integration: when Config.Persist is set, every publish of
// writer-visible state is journaled before it becomes visible — create
// writes the session's initial snapshot, each coalesced delta batch appends
// one WAL record, and the ack only goes out after the record reached the
// fsync policy's durability point.  Reads never touch the WAL.
//
// Degradation: the first persistence failure flips the manager into sticky
// degraded mode.  State-changing requests are shed with 503 +
// Retry-After (rejectDegraded), while lock-free reads keep serving the last
// durably-acked snapshot — in-memory state that failed to journal is never
// installed, so readers cannot observe acknowledged-but-lost writes.

// persistFailed wraps a persistence error so writeFailure maps it onto the
// 503 persistence_degraded response.
func persistFailed(err error) error {
	if errors.Is(err, wal.ErrDegraded) {
		return err
	}
	return fmt.Errorf("%w: %v", wal.ErrDegraded, err)
}

// rejectDegraded sheds state-changing requests while persistence is
// degraded, mirroring rejectDraining: 503 with Retry-After, counted in the
// 503 backpressure counter.
func (s *Server) rejectDegraded(w http.ResponseWriter) bool {
	if s.cfg.Persist == nil || !s.cfg.Persist.Degraded() {
		return false
	}
	s.stats.rejected503.Add(1)
	w.Header().Set("Retry-After", retryAfterSeconds)
	writeError(w, http.StatusServiceUnavailable, "persistence_degraded",
		"persistence is degraded; state-changing requests are disabled until restart")
	return true
}

// buildRecord builds the record that takes the session from prev to snap: the
// batch's deltas (plus any pending un-journaled deltas from a timed-out batch)
// and the assignment diff.  It returns nil when nothing consumes records — a
// memory-only session without a Replicator.  Called under the writer slot.
func (sess *session) buildRecord(prev *snapshot, snap snapshot, batch []*deltaReq) *wal.Record {
	if sess.wlog == nil && !sess.replicated {
		return nil
	}
	recDeltas := make([]netmodel.Delta, 0, len(sess.pendingJournal)+len(batch))
	recDeltas = append(recDeltas, sess.pendingJournal...)
	for _, rq := range batch {
		recDeltas = append(recDeltas, rq.delta)
	}
	var prevVersion uint64
	var prevAssignment *netmodel.Assignment
	if prev != nil {
		prevVersion, prevAssignment = prev.version, prev.assignment
	}
	changed, removed := snap.assignment.DiffHosts(prevAssignment)
	return &wal.Record{
		PrevVersion: prevVersion,
		Version:     snap.version,
		Deltas:      recDeltas,
		Changed:     changed,
		Removed:     removed,
		Energy:      snap.energy,
		Hash:        snap.hash,
	}
}

// rememberUnjournaled records a batch whose network mutations landed without
// a journaled record (re-optimisation failed mid-solve, or the append itself
// failed): the deltas are kept so the next successful publish journals the
// complete network history.  A shallow Delta copy suffices — recycled
// requests drop their Ops reference without reusing the backing array.
// Replicated memory-only sessions remember too: replication records must
// carry the full delta history or follower networks diverge.  Called under
// the writer slot.
func (sess *session) rememberUnjournaled(batch []*deltaReq) {
	if sess.wlog == nil && !sess.replicated {
		return
	}
	for _, rq := range batch {
		sess.pendingJournal = append(sess.pendingJournal, rq.delta)
	}
}

// Restore registers a session recovered by wal.Recover at exactly the
// recovered state (no re-solve — which is what lets the crash-recovery smoke
// assert identical assignment hashes), journaling onward on the recovered log
// handle.  The server's role decides the rest: a primary gets its optimiser
// back, a follower (SetFollower comes before recovery at boot) keeps a
// replica that ReplicaApply advances and Promote later makes writable.
func (s *Server) Restore(rec *wal.Recovered) error {
	sess, err := s.adopt(rec.Snapshot, rec.Net, rec.Constraints, rec.Log)
	if err != nil {
		return fmt.Errorf("serve: session %s: %w", rec.Snapshot.ID, err)
	}
	defer sess.unlock()
	if s.role.Load() == rolePrimary {
		if err := sess.attachOptimizer(); err != nil {
			return fmt.Errorf("serve: session %s: %w", sess.id, err)
		}
	}
	if err := s.store.put(sess); err != nil {
		return fmt.Errorf("serve: session %s: %w", sess.id, err)
	}
	if rep := s.cfg.Replicator; rep != nil {
		rep.SessionCreated(rec.Snapshot)
	}
	return nil
}

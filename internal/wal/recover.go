package wal

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"netdiversity/internal/netmodel"
)

// Recovered is one session rebuilt by boot recovery: the snapshot advanced
// to the replayed tip, the rebuilt network and constraints, and a fresh Log
// handle ready for appends.
type Recovered struct {
	// Snapshot holds the session's configuration and published state at the
	// recovered tip: Version, Energy, Hash and Assignment reflect the state
	// after replay, not the on-disk snapshot file.
	Snapshot *SessionSnapshot
	// Net and Constraints are the network rebuilt from the snapshot spec
	// with all replayed deltas applied.
	Net         *netmodel.Network
	Constraints *netmodel.ConstraintSet
	// Log is the session's live log handle, already rotated to a fresh
	// segment so any torn tail is left behind.
	Log *Log
	// Replayed counts log records folded in on top of the snapshot.
	Replayed int
	// TornTail is true when replay encountered a torn or corrupt record —
	// the expected signature of a crash during append, possibly in an
	// abandoned tail left behind by an earlier recovery.
	TornTail bool
}

// SkippedSession reports a session directory recovery could not restore.
// Boot continues without it; the directory is left on disk for inspection.
type SkippedSession struct {
	ID  string
	Err error
}

// Recover scans the data directory and rebuilds every session from its
// newest valid snapshot plus the log tail.  Unrecoverable sessions are
// skipped, not fatal: one corrupt tenant must not keep the daemon (and every
// other tenant) down.  Results are sorted by session ID for deterministic
// boot order.
func (m *Manager) Recover() ([]*Recovered, []SkippedSession, error) {
	entries, err := m.fs.ReadDir(filepath.Join(m.opts.Dir, sessionsDir))
	if err != nil {
		return nil, nil, fmt.Errorf("wal: scan data dir: %w", err)
	}
	var recovered []*Recovered
	var skipped []SkippedSession
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		if !validID(id) {
			skipped = append(skipped, SkippedSession{ID: id, Err: fmt.Errorf("wal: invalid session directory name %q", id)})
			continue
		}
		rec, err := m.recoverSession(id)
		if err != nil {
			skipped = append(skipped, SkippedSession{ID: id, Err: err})
			continue
		}
		recovered = append(recovered, rec)
	}
	sort.Slice(recovered, func(i, j int) bool {
		return recovered[i].Snapshot.ID < recovered[j].Snapshot.ID
	})
	sort.Slice(skipped, func(i, j int) bool { return skipped[i].ID < skipped[j].ID })
	m.recovered.Store(int64(len(recovered)))
	return recovered, skipped, nil
}

// segment is a log segment discovered on disk.
type segment struct {
	first uint64
	path  string
}

// recoverSession rebuilds one session directory.
func (m *Manager) recoverSession(id string) (*Recovered, error) {
	dir := m.sessionDir(id)
	entries, err := m.fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snapVersions []uint64
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// Uncommitted snapshot attempt; a crash artifact.
			m.fs.Remove(filepath.Join(dir, name)) //nolint:errcheck // best effort
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 16, 64); err == nil {
				snapVersions = append(snapVersions, v)
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 16, 64); err == nil {
				segs = append(segs, segment{first: v, path: filepath.Join(dir, name)})
			}
		}
	}
	if len(snapVersions) == 0 {
		return nil, fmt.Errorf("wal: session %s: no snapshot", id)
	}
	// Newest snapshot first; fall back to older ones if validation fails.
	sort.Slice(snapVersions, func(i, j int) bool { return snapVersions[i] > snapVersions[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	var lastErr error
	for _, v := range snapVersions {
		snap, err := readSnapshotFile(m.fs, filepath.Join(dir, snapName(v)))
		if err != nil {
			lastErr = err
			continue
		}
		if snap.ID != id {
			lastErr = fmt.Errorf("%w: snapshot claims id %q in directory %q", errBadSnapshot, snap.ID, id)
			continue
		}
		rec, err := m.replaySession(snap, segs)
		if err != nil {
			lastErr = err
			continue
		}
		// Rotate to a fresh segment past the recovered tip: the torn tail
		// (if any) is abandoned in place — replay skips it next boot — and
		// deleted at the next compaction.
		l, err := m.openLog(id, dir, rec.Snapshot.Version, rec.Replayed)
		if err != nil {
			return nil, err
		}
		rec.Log = l
		return rec, nil
	}
	return nil, fmt.Errorf("wal: session %s: no usable snapshot: %w", id, lastErr)
}

// errStopReplay is the apply callback's signal that nothing later in the
// session's log can apply (chain gap, hash mismatch).
var errStopReplay = errors.New("wal: stop replay")

// replaySession folds the log tail into the snapshot.  Every record is
// verified before it is applied — Patch derives the next assignment without
// touching the current one — so a record whose journaled hash does not match
// simply ends the replay at the last verified state: the hash chain makes
// everything after a mismatch untrustworthy.
func (m *Manager) replaySession(snap *SessionSnapshot, segs []segment) (*Recovered, error) {
	net, cs, err := netmodel.FromSpec(snap.Spec)
	if err != nil {
		return nil, fmt.Errorf("wal: session %s: rebuild network: %w", snap.ID, err)
	}
	assignment := snap.Assignment
	version := snap.Version
	energy := snap.Energy
	replayed := 0
	torn := false

	for _, seg := range segs {
		stop, segTorn, err := m.replaySegment(seg.path, func(r *Record) error {
			if r.Version <= version {
				// Already folded into the snapshot (pre-compaction segment
				// whose deletion failed); skip.
				return nil
			}
			if r.PrevVersion != version {
				// Chain gap (a segment from a previous incarnation or a
				// corrupt run): nothing after it can apply.
				return errStopReplay
			}
			next, err := r.Patch(assignment)
			if err != nil {
				return errStopReplay
			}
			if err := r.ApplyDeltas(net); err != nil {
				return err
			}
			assignment = next
			version = r.Version
			energy = r.Energy
			replayed++
			return nil
		})
		if err != nil {
			return nil, err
		}
		if segTorn {
			// A torn or corrupt frame ends this segment, not the whole
			// replay.  The torn frame may be the stale abandoned tail of a
			// segment an earlier recovery already rotated past, with durably
			// acked records living in later segments; the PrevVersion chain
			// check decides whether anything later still applies.  Breaking
			// here instead would make a second crash lose those records.
			torn = true
			continue
		}
		if stop {
			// An explicit stop (chain gap, hash mismatch): versions only grow,
			// so nothing in a later segment can chain past the break.
			break
		}
	}

	if err := assignment.ValidateFor(net); err != nil {
		return nil, fmt.Errorf("wal: session %s: recovered assignment invalid: %w", snap.ID, err)
	}
	out := *snap
	out.Version = version
	out.Energy = energy
	out.Assignment = assignment
	out.Hash = assignment.Hash()
	out.Spec = netmodel.ToSpec(net, cs)
	return &Recovered{
		Snapshot:    &out,
		Net:         net,
		Constraints: cs,
		Replayed:    replayed,
		TornTail:    torn,
	}, nil
}

// replaySegment streams one segment's records into apply.  errStopReplay from
// apply ends the whole replay (stop=true); any other apply error is returned.
// A torn or corrupt frame — bad framing, or framing that passed around JSON
// that did not — ends the segment (torn=true) without error.
func (m *Manager) replaySegment(path string, apply func(*Record) error) (stop, torn bool, err error) {
	f, err := m.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return false, false, err
	}
	defer f.Close()
	err = ScanFrames(f, math.MaxInt, func(payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		return apply(rec)
	})
	switch {
	case errors.Is(err, errStopReplay):
		return true, false, nil
	case errors.Is(err, ErrTorn), errors.Is(err, ErrCorrupt):
		return false, true, nil
	}
	return false, false, err
}

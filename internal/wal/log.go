package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Log is one session's write-ahead log handle: the open tail segment plus
// append bookkeeping.  The serve plane calls Append under the session's
// writer slot, so a Log sees one appender at a time; the mutex exists for
// the background interval syncer and Close.
type Log struct {
	m   *Manager
	id  string
	dir string

	mu        sync.Mutex
	f         File
	segPath   string
	segBytes  int64
	unsynced  int64
	version   uint64 // version of the last appended record
	sinceSnap int    // records appended since the last snapshot
	buf       []byte // frame scratch, reused across appends
	closed    bool
}

// Version returns the version of the last record made durable-per-policy.
func (l *Log) Version() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.version
}

// Append journals one record and blocks until the policy's durability point:
// under SyncAlways the record is fsynced before return, under SyncInterval
// and SyncNever it has been written to the OS.  A nil return is the caller's
// licence to ack the client.  Any error leaves the manager degraded — the
// record may be partially on disk (a torn tail recovery will drop), so no
// further appends are accepted until a restart re-establishes disk state.
func (l *Log) Append(rec *Record) error {
	payload, err := rec.Encode()
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	if l.m.degraded.Load() {
		return ErrDegraded
	}
	if rec.PrevVersion != l.version {
		return fmt.Errorf("wal: record chains from %d but log is at %d", rec.PrevVersion, l.version)
	}
	if err := failpoint(FPPreAppend); err != nil {
		l.m.degrade(err)
		return err
	}
	if l.segBytes >= l.m.opts.SegmentBytes {
		if err := l.rotate(rec.Version); err != nil {
			l.m.degrade(err)
			return err
		}
	}
	l.buf = AppendFrame(l.buf[:0], payload)
	n, werr := l.f.Write(l.buf)
	l.segBytes += int64(n)
	l.unsynced += int64(n)
	l.m.appended.Add(int64(n))
	if werr != nil {
		l.m.degrade(werr)
		return werr
	}
	if err := failpoint(FPMidAppend); err != nil {
		l.m.degrade(err)
		return err
	}
	if l.m.opts.Policy == SyncAlways {
		if serr := l.f.Sync(); serr != nil {
			l.m.syncErrors.Add(1)
			l.m.degrade(serr)
			return serr
		}
		l.m.synced.Add(l.unsynced)
		l.unsynced = 0
	}
	l.version = rec.Version
	l.sinceSnap++
	l.m.records.Add(1)
	if err := failpoint(FPPostAppend); err != nil {
		l.m.degrade(err)
		return err
	}
	return nil
}

// staleSuffix marks a segment openLog renamed aside because its name
// collided with the fresh post-recovery tail.  Its frames are unreplayable
// (torn, corrupt, or off-chain); the file is kept for inspection until the
// next compaction deletes it.
const staleSuffix = ".stale"

// rotate closes the tail segment and opens a fresh one whose name carries
// the version of its first record.  Under a syncing policy the outgoing
// segment is fsynced before it closes: once rotated out, the file is beyond
// the background syncer's reach, so skipping the fsync here would leave
// acked records unsynced forever while crediting their bytes as synced.
// Called with l.mu held.
func (l *Log) rotate(firstVersion uint64) error {
	if l.m.opts.Policy != SyncNever && l.unsynced > 0 {
		if err := l.f.Sync(); err != nil {
			l.m.syncErrors.Add(1)
			return err
		}
		l.m.synced.Add(l.unsynced)
		l.unsynced = 0
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	path := filepath.Join(l.dir, segName(firstVersion))
	f, err := l.m.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.segPath = path
	l.segBytes = 0
	return nil
}

// ShouldSnapshot reports whether enough records accumulated since the last
// compacted snapshot to warrant writing a new one.
func (l *Log) ShouldSnapshot() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceSnap >= l.m.opts.SnapshotEvery
}

// WriteSnapshot writes a compacted snapshot of the session at the log's
// current version and truncates the log: the tail segment is rotated and
// every older segment and snapshot deleted.  The snapshot must capture
// exactly the state at Version().  Failure degrades the manager, except
// during cleanup: once the rename committed the snapshot, leftover old files
// are harmless (recovery skips records at or below the snapshot version) and
// are retried by the next compaction.
func (l *Log) WriteSnapshot(snap *SessionSnapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	if l.m.degraded.Load() {
		return ErrDegraded
	}
	if err := failpoint(FPPreSnapshot); err != nil {
		l.m.degrade(err)
		return err
	}
	if snap.Version != l.version {
		return fmt.Errorf("wal: snapshot at version %d but log is at %d", snap.Version, l.version)
	}
	final, err := writeSnapshotFile(l.m.fs, l.dir, snap, l.m.opts.Policy != SyncNever)
	if err != nil {
		l.m.degrade(err)
		return err
	}
	// The snapshot is committed; rotate so the old tail can be deleted.
	if err := l.rotate(l.version + 1); err != nil {
		l.m.degrade(err)
		return err
	}
	l.sinceSnap = 0
	l.m.snapshots.Add(1)
	l.m.lastSnap.Store(snap.Version)
	l.m.synced.Add(l.unsynced)
	l.unsynced = 0
	l.cleanup(filepath.Base(final))
	return nil
}

// cleanup deletes every segment and snapshot other than the live tail
// segment and the snapshot just written, plus stray temp files.  Best
// effort: failures leave garbage that recovery tolerates and the next
// compaction retries.  Called with l.mu held.
func (l *Log) cleanup(keepSnap string) {
	entries, err := l.m.fs.ReadDir(l.dir)
	if err != nil {
		return
	}
	keepSeg := filepath.Base(l.segPath)
	for _, e := range entries {
		name := e.Name()
		switch {
		case name == keepSeg || name == keepSnap:
		case strings.HasSuffix(name, ".tmp"),
			strings.HasSuffix(name, staleSuffix),
			strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"),
			strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			l.m.fs.Remove(filepath.Join(l.dir, name)) //nolint:errcheck // best effort
		}
	}
}

// sync flushes unsynced bytes; used by the interval syncer and Close.
func (l *Log) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.unsynced == 0 {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.m.syncErrors.Add(1)
		l.m.degrade(err)
		return err
	}
	l.m.synced.Add(l.unsynced)
	l.unsynced = 0
	return nil
}

// closeSync fsyncs pending bytes and closes the tail segment.
func (l *Log) closeSync() error {
	serr := l.sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return serr
	}
	l.closed = true
	if err := l.f.Close(); err != nil && serr == nil {
		serr = err
	}
	return serr
}

// closeFile closes the tail segment without syncing (session deletion).
func (l *Log) closeFile() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.f.Close() //nolint:errcheck // directory is being removed
}

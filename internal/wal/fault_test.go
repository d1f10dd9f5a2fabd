package wal

import (
	"errors"
	"testing"
	"time"

	"netdiversity/internal/netmodel"
)

// crashSetup creates a manager over dir with one session at version 1 and
// returns the log plus the assignment state after the snapshot.
func crashSetup(t *testing.T, dir string, opts Options) (*Manager, *Log, *netmodel.Assignment, *SessionSnapshot) {
	t.Helper()
	opts.Dir = dir
	m, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	snap := testSnapshot("s1", 3)
	l, err := m.Create(snap)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return m, l, snap.Assignment.Clone(), snap
}

// recoverOne reopens dir with a fresh manager and recovers the single session.
func recoverOne(t *testing.T, dir string) *Recovered {
	t.Helper()
	m, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	recovered, skipped, err := m.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped sessions: %+v", skipped)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(recovered))
	}
	return recovered[0]
}

// TestCrashPointMatrix simulates a crash at every append/snapshot stage
// boundary and asserts recovery lands on either the pre-delta or the
// post-delta assignment hash — never anything else — matching the
// acceptance matrix in ISSUE.md.  With fsync=always, a crash after the
// durability point (append:post) must recover the post-delta state.
func TestCrashPointMatrix(t *testing.T) {
	cases := []struct {
		point     string
		policy    Policy
		allowPre  bool
		allowPost bool
	}{
		// Before the frame is written nothing can survive.
		{FPPreAppend, SyncAlways, true, false},
		// Mid-append the frame may be torn (pre) or complete (post); with a
		// single atomic write the OS keeps it, so both states are legal.
		{FPMidAppend, SyncAlways, true, true},
		// Past the fsync=always durability point the record MUST survive.
		{FPPostAppend, SyncAlways, false, true},
		// Under fsync=never the write usually survives a process crash, but
		// nothing is promised — both states are legal.
		{FPPostAppend, SyncNever, true, true},
		// Snapshot-path crashes never lose the already-appended record.
		{FPPreSnapshot, SyncAlways, false, true},
		{FPMidSnapshot, SyncAlways, false, true},
		{FPPostRename, SyncAlways, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.point+"/"+tc.policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			// SnapshotEvery=1 so the snapshot failpoints are reachable via
			// WriteSnapshot immediately after one append.
			m, l, cur, _ := crashSetup(t, dir, Options{Policy: tc.policy, SnapshotEvery: 1})
			preHash := cur.Hash()
			rec := patchRecord(cur, 1, "h0", "ubt1404")
			postHash := rec.Hash

			SetFailPoint(tc.point, func() error { return ErrCrashPoint })
			defer ClearFailPoints()

			err := l.Append(rec)
			snapshotPoint := tc.point == FPPreSnapshot || tc.point == FPMidSnapshot || tc.point == FPPostRename
			if snapshotPoint {
				if err != nil {
					t.Fatalf("append hit %v before the snapshot stage", err)
				}
				snap2 := testSnapshot("s1", 3)
				snap2.Version = 2
				snap2.Assignment = cur.Clone()
				snap2.Hash = postHash
				if err := l.WriteSnapshot(snap2); !errors.Is(err, ErrCrashPoint) {
					t.Fatalf("WriteSnapshot: %v, want ErrCrashPoint", err)
				}
			} else if !errors.Is(err, ErrCrashPoint) {
				t.Fatalf("Append: %v, want ErrCrashPoint", err)
			}
			// A crash-point error leaves the manager degraded (fail-stop).
			if !m.Degraded() {
				t.Fatal("manager not degraded after simulated crash")
			}
			ClearFailPoints()
			m.Close()

			got := recoverOne(t, dir)
			switch got.Snapshot.Hash {
			case preHash:
				if !tc.allowPre {
					t.Fatalf("%s: recovered PRE-delta state; acked record lost", tc.point)
				}
				if got.Snapshot.Version != 1 {
					t.Fatalf("pre-state at version %d", got.Snapshot.Version)
				}
			case postHash:
				if !tc.allowPost {
					t.Fatalf("%s: recovered POST-delta state before it could exist", tc.point)
				}
				if got.Snapshot.Version != 2 {
					t.Fatalf("post-state at version %d", got.Snapshot.Version)
				}
			default:
				t.Fatalf("%s: recovered hash %s is neither pre (%s) nor post (%s)",
					tc.point, got.Snapshot.Hash, preHash, postHash)
			}
		})
	}
}

// TestAckedSurvivesWithSyncAlways is the core durability promise: every
// Append that RETURNED NIL under fsync=always is recovered, whatever
// happens afterwards (here: the process "crashes" with no Close).
func TestAckedSurvivesWithSyncAlways(t *testing.T) {
	dir := t.TempDir()
	_, l, cur, _ := crashSetup(t, dir, Options{Policy: SyncAlways})
	var ackedHash string
	var ackedVersion uint64
	for v := uint64(1); v < 8; v++ {
		rec := patchRecord(cur, v, "h1", []netmodel.ProductID{"win7", "ubt1404", "osx109"}[v%3])
		if err := l.Append(rec); err != nil {
			t.Fatalf("Append v%d: %v", v, err)
		}
		ackedHash, ackedVersion = rec.Hash, rec.Version
	}
	// No Close: the file handles stay open, mimicking kill -9.  The data was
	// fsynced per record, so a fresh manager over the same dir must see it.
	got := recoverOne(t, dir)
	if got.Snapshot.Version != ackedVersion || got.Snapshot.Hash != ackedHash {
		t.Fatalf("recovered v%d/%s, want acked v%d/%s",
			got.Snapshot.Version, got.Snapshot.Hash, ackedVersion, ackedHash)
	}
}

func TestShortWriteDegradesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS)
	m, l, cur, _ := crashSetup(t, dir, Options{FS: ffs, Policy: SyncAlways})
	rec1 := patchRecord(cur, 1, "h0", "ubt1404")
	if err := l.Append(rec1); err != nil {
		t.Fatalf("Append: %v", err)
	}

	// The disk dies 5 bytes into the next frame: a short write, then errors.
	ffs.SetWriteBudget(5)
	rec2 := patchRecord(cur, 2, "h1", "osx109")
	if err := l.Append(rec2); !errors.Is(err, ErrInjected) {
		t.Fatalf("Append on dead disk: %v, want ErrInjected", err)
	}
	if !m.Degraded() {
		t.Fatal("manager not degraded after write failure")
	}
	// Degradation is sticky: later appends shed with ErrDegraded without
	// touching the disk again.
	ffs.SetWriteBudget(-1)
	if err := l.Append(rec2); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append while degraded: %v, want ErrDegraded", err)
	}
	st := m.Stats()
	if !st.Degraded || st.LastError == "" {
		t.Fatalf("stats: %+v", st)
	}
	m.Close()

	// Recovery over the torn tail lands on the last fully-acked record.
	got := recoverOne(t, dir)
	if got.Snapshot.Version != 2 || got.Snapshot.Hash != rec1.Hash {
		t.Fatalf("recovered v%d/%s, want v2/%s", got.Snapshot.Version, got.Snapshot.Hash, rec1.Hash)
	}
	if !got.TornTail && got.Replayed != 1 {
		t.Fatalf("replayed %d, torn %v", got.Replayed, got.TornTail)
	}
}

func TestSyncErrorDegrades(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS)
	m, l, cur, _ := crashSetup(t, dir, Options{FS: ffs, Policy: SyncAlways})
	ffs.FailSync(errors.New("EIO"))
	if err := l.Append(patchRecord(cur, 1, "h0", "ubt1404")); err == nil {
		t.Fatal("Append acked despite fsync failure under fsync=always")
	}
	if !m.Degraded() {
		t.Fatal("manager not degraded after fsync failure")
	}
	if st := m.Stats(); st.SyncErrors == 0 {
		t.Fatalf("sync_errors not counted: %+v", st)
	}
}

func TestRenameErrorFailsSnapshot(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS)
	m, l, cur, _ := crashSetup(t, dir, Options{FS: ffs, SnapshotEvery: 1})
	if err := l.Append(patchRecord(cur, 1, "h0", "ubt1404")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	ffs.FailRename(errors.New("EIO"))
	snap2 := testSnapshot("s1", 3)
	snap2.Version = 2
	snap2.Assignment = cur.Clone()
	snap2.Hash = cur.Hash()
	if err := l.WriteSnapshot(snap2); err == nil {
		t.Fatal("WriteSnapshot succeeded despite rename failure")
	}
	if !m.Degraded() {
		t.Fatal("manager not degraded after snapshot rename failure")
	}
	ffs.FailRename(nil)
	m.Close()

	// The failed snapshot must not shadow the good state: recovery falls
	// back to the old snapshot + log replay.
	got := recoverOne(t, dir)
	if got.Snapshot.Version != 2 || got.Replayed != 1 {
		t.Fatalf("recovered v%d replayed %d", got.Snapshot.Version, got.Replayed)
	}
}

// TestRotateSyncsOutgoingSegment pins that rotation fsyncs the rotated-out
// segment under a syncing policy: once rotated, the file is beyond the
// background syncer's reach, so a failed fsync must fail the append and
// degrade — not silently leave acked bytes unsynced forever.  Interval is
// cranked up so the background syncer cannot drain the segment first.
func TestRotateSyncsOutgoingSegment(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS)
	m, l, cur, _ := crashSetup(t, dir, Options{FS: ffs, Policy: SyncInterval, SegmentBytes: 1, Interval: time.Hour})
	if err := l.Append(patchRecord(cur, 1, "h0", "ubt1404")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	ffs.FailSync(errors.New("EIO"))
	if err := l.Append(patchRecord(cur, 2, "h1", "osx109")); err == nil {
		t.Fatal("append acked although the rotated-out segment could not be fsynced")
	}
	if !m.Degraded() {
		t.Fatal("manager not degraded after rotation fsync failure")
	}
	if st := m.Stats(); st.SyncErrors == 0 || st.WalLagBytes == 0 {
		t.Fatalf("stats after failed rotation sync: %+v", st)
	}
}

// TestRotateAccountsSyncedBytes pins the lag accounting across rotation:
// rotated-out bytes are credited as synced only because rotation fsynced
// them, so wal_lag_bytes is exactly the unsynced tail.
func TestRotateAccountsSyncedBytes(t *testing.T) {
	dir := t.TempDir()
	m, l, cur, _ := crashSetup(t, dir, Options{Policy: SyncInterval, SegmentBytes: 1, Interval: time.Hour})
	var lastFrame int
	for v := uint64(1); v < 4; v++ {
		rec := patchRecord(cur, v, "h0", []netmodel.ProductID{"win7", "ubt1404", "osx109"}[v%3])
		payload, err := rec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		lastFrame = len(AppendFrame(nil, payload))
		if err := l.Append(rec); err != nil {
			t.Fatalf("Append v%d: %v", v, err)
		}
	}
	if st := m.Stats(); st.WalLagBytes != int64(lastFrame) {
		t.Fatalf("wal_lag_bytes = %d, want the tail frame's %d", st.WalLagBytes, lastFrame)
	}
	if err := l.sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if st := m.Stats(); st.WalLagBytes != 0 {
		t.Fatalf("wal_lag_bytes = %d after sync, want 0", st.WalLagBytes)
	}
}

func TestFailPointDisarmed(t *testing.T) {
	// A set-then-cleared failpoint costs nothing and fires nothing.
	SetFailPoint(FPPreAppend, func() error { return ErrCrashPoint })
	ClearFailPoint(FPPreAppend)
	dir := t.TempDir()
	_, l, cur, _ := crashSetup(t, dir, Options{})
	if err := l.Append(patchRecord(cur, 1, "h0", "ubt1404")); err != nil {
		t.Fatalf("Append with cleared failpoint: %v", err)
	}
}

func TestDegradedManagerRejectsCreate(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS)
	m, l, cur, _ := crashSetup(t, dir, Options{FS: ffs})
	ffs.FailWrites(errors.New("EIO"))
	if err := l.Append(patchRecord(cur, 1, "h0", "ubt1404")); err == nil {
		t.Fatal("Append acked on failed write")
	}
	ffs.FailWrites(nil)
	if _, err := m.Create(testSnapshot("s2", 2)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Create while degraded: %v, want ErrDegraded", err)
	}
}

package wal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netdiversity/internal/netmodel"
)

// testSpec builds a small chain network spec.
func testSpec(hosts int) netmodel.Spec {
	spec := netmodel.Spec{}
	for i := 0; i < hosts; i++ {
		spec.Hosts = append(spec.Hosts, netmodel.HostSpec{
			ID:       netmodel.HostID(fmt.Sprintf("h%d", i)),
			Services: []netmodel.ServiceID{"os"},
			Choices: map[netmodel.ServiceID][]netmodel.ProductID{
				"os": {"win7", "ubt1404", "osx109"},
			},
		})
		if i > 0 {
			spec.Links = append(spec.Links, netmodel.Link{
				A: netmodel.HostID(fmt.Sprintf("h%d", i-1)),
				B: netmodel.HostID(fmt.Sprintf("h%d", i)),
			})
		}
	}
	return spec
}

// testAssignment assigns every host of the spec its idx-th candidate.
func testAssignment(spec netmodel.Spec, idx int) *netmodel.Assignment {
	a := netmodel.NewAssignment()
	for _, h := range spec.Hosts {
		for _, s := range h.Services {
			cands := h.Choices[s]
			a.Set(h.ID, s, cands[idx%len(cands)])
		}
	}
	return a
}

// testSnapshot builds a session snapshot at version 1.
func testSnapshot(id string, hosts int) *SessionSnapshot {
	spec := testSpec(hosts)
	a := testAssignment(spec, 0)
	return &SessionSnapshot{
		ID:         id,
		Solver:     "trws",
		Seed:       7,
		Version:    1,
		Energy:     1.5,
		Hash:       a.Hash(),
		Spec:       spec,
		Assignment: a,
	}
}

// patchRecord builds the record that flips host h's product, chaining
// prev -> prev+1 on top of the given assignment state (mutating it).
func patchRecord(cur *netmodel.Assignment, prev uint64, h netmodel.HostID, p netmodel.ProductID) *Record {
	cur.Set(h, "os", p)
	return &Record{
		PrevVersion: prev,
		Version:     prev + 1,
		Changed: map[netmodel.HostID]map[netmodel.ServiceID]netmodel.ProductID{
			h: {"os": p},
		},
		Energy: float64(prev),
		Hash:   cur.Hash(),
	}
}

// sessDir returns the on-disk directory of a session under a data dir.
func sessDir(dir, id string) string { return filepath.Join(dir, sessionsDir, id) }

func openManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	m, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte("{}"), []byte(`{"a":1}`), bytes.Repeat([]byte("x"), 1000)}
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	r := bufio.NewReader(bytes.NewReader(buf))
	for i, want := range payloads {
		got, err := readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %q want %q", i, got, want)
		}
	}
	if _, err := readFrame(r); !errors.Is(err, io.EOF) {
		t.Fatalf("expected clean EOF at frame boundary, got %v", err)
	}
}

func TestFrameTornAndCorrupt(t *testing.T) {
	frame := AppendFrame(nil, []byte(`{"v":1}`))

	// Every strict prefix of the frame is torn, never corrupt.
	for cut := 1; cut < len(frame); cut++ {
		_, err := readFrame(bufio.NewReader(bytes.NewReader(frame[:cut])))
		if !errors.Is(err, ErrTorn) {
			t.Fatalf("prefix %d/%d: got %v, want ErrTorn", cut, len(frame), err)
		}
	}
	// A flipped payload bit is corruption.
	for i := frameHeaderSize; i < len(frame); i++ {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		_, err := readFrame(bufio.NewReader(bytes.NewReader(bad)))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: got %v, want ErrCorrupt", i, err)
		}
	}
	// An absurd declared length is corruption, not an allocation attempt.
	bad := append([]byte(nil), frame...)
	bad[3] = 0xff
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(bad))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("absurd length: got %v, want ErrCorrupt", err)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap := testSnapshot("s1", 3)
	path, err := writeSnapshotFile(OS, dir, snap, true)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := readSnapshotFile(OS, path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.ID != "s1" || got.Version != 1 || got.Hash != snap.Hash || len(got.Spec.Hosts) != 3 {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	// Truncated and bit-flipped copies must be rejected.
	raw, _ := os.ReadFile(path)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated", raw[:len(raw)-5]},
		{"short", raw[:snapFooterSize-1]},
		{"bitflip", func() []byte {
			b := append([]byte(nil), raw...)
			b[len(b)/2] ^= 0x10
			return b
		}()},
	} {
		p := filepath.Join(dir, tc.name)
		os.WriteFile(p, tc.data, 0o644)
		if _, err := readSnapshotFile(OS, p); err == nil {
			t.Fatalf("%s: validation passed on damaged snapshot", tc.name)
		}
	}
}

func TestCreateAppendRecover(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, Options{Dir: dir})
	snap := testSnapshot("s1", 3)
	l, err := m.Create(snap)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	cur := snap.Assignment.Clone()
	var wantHash string
	for v := uint64(1); v < 6; v++ {
		rec := patchRecord(cur, v, "h0", []netmodel.ProductID{"win7", "ubt1404", "osx109"}[v%3])
		if err := l.Append(rec); err != nil {
			t.Fatalf("Append v%d: %v", v, err)
		}
		wantHash = rec.Hash
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m2 := openManager(t, Options{Dir: dir})
	recovered, skipped, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped: %+v", skipped)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(recovered))
	}
	rec := recovered[0]
	if rec.Snapshot.Version != 6 || rec.Replayed != 5 || rec.TornTail {
		t.Fatalf("recovered: version %d replayed %d torn %v", rec.Snapshot.Version, rec.Replayed, rec.TornTail)
	}
	if rec.Snapshot.Hash != wantHash {
		t.Fatalf("recovered hash %s want %s", rec.Snapshot.Hash, wantHash)
	}
	if !rec.Snapshot.Assignment.Equal(cur) {
		t.Fatalf("recovered assignment differs:\n%v\nwant\n%v", rec.Snapshot.Assignment, cur)
	}
	if rec.Log.Version() != 6 {
		t.Fatalf("recovered log at version %d", rec.Log.Version())
	}
	// The recovered log accepts the next record in the chain.
	if err := rec.Log.Append(patchRecord(cur, 6, "h1", "osx109")); err != nil {
		t.Fatalf("post-recovery append: %v", err)
	}
}

func TestRecoverDeltaReplay(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, Options{Dir: dir})
	snap := testSnapshot("s1", 3)
	l, err := m.Create(snap)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Record with a topology delta: h3 joins with an assignment.
	cur := snap.Assignment.Clone()
	cur.Set("h3", "os", "win7")
	rec := &Record{
		PrevVersion: 1,
		Version:     2,
		Deltas: []netmodel.Delta{{Ops: []netmodel.DeltaOp{
			{Op: netmodel.OpAddHost, Host: &netmodel.HostSpec{
				ID:       "h3",
				Services: []netmodel.ServiceID{"os"},
				Choices:  map[netmodel.ServiceID][]netmodel.ProductID{"os": {"win7", "ubt1404"}},
			}},
			{Op: netmodel.OpAddEdge, A: "h2", B: "h3"},
		}}},
		Changed: map[netmodel.HostID]map[netmodel.ServiceID]netmodel.ProductID{
			"h3": {"os": "win7"},
		},
		Energy: 2,
		Hash:   cur.Hash(),
	}
	if err := l.Append(rec); err != nil {
		t.Fatalf("Append: %v", err)
	}
	m.Close()

	m2 := openManager(t, Options{Dir: dir})
	recovered, _, err := m2.Recover()
	if err != nil || len(recovered) != 1 {
		t.Fatalf("Recover: %v (%d sessions)", err, len(recovered))
	}
	got := recovered[0]
	if got.Net.NumHosts() != 4 || !got.Net.Connected("h2", "h3") {
		t.Fatalf("delta not replayed into network: %d hosts", got.Net.NumHosts())
	}
	if p, _ := got.Snapshot.Assignment.Get("h3", "os"); p != "win7" {
		t.Fatalf("h3 assignment not recovered: %q", p)
	}
}

// appendGarbage appends raw bytes to the session's newest segment file.
func appendGarbage(t *testing.T, dir, id string, b []byte) {
	t.Helper()
	entries, err := os.ReadDir(sessDir(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	var seg string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			seg = e.Name() // sorted: the last wal- entry is the newest
		}
	}
	f, err := os.OpenFile(filepath.Join(sessDir(dir, id), seg), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, Options{Dir: dir})
	snap := testSnapshot("s1", 3)
	l, _ := m.Create(snap)
	cur := snap.Assignment.Clone()
	rec := patchRecord(cur, 1, "h0", "ubt1404")
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	m.Close()

	// A crash mid-append leaves a partial frame at the tail.
	full := AppendFrame(nil, []byte(`{"prev_version":2,"version":3,"hash":"x"}`))
	appendGarbage(t, dir, "s1", full[:len(full)-3])

	m2 := openManager(t, Options{Dir: dir})
	recovered, _, err := m2.Recover()
	if err != nil || len(recovered) != 1 {
		t.Fatalf("Recover: %v", err)
	}
	got := recovered[0]
	if !got.TornTail {
		t.Fatal("torn tail not reported")
	}
	if got.Snapshot.Version != 2 || got.Snapshot.Hash != rec.Hash {
		t.Fatalf("recovered version %d hash %s, want 2 / %s", got.Snapshot.Version, got.Snapshot.Hash, rec.Hash)
	}
}

func TestRecoverHashMismatch(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, Options{Dir: dir})
	snap := testSnapshot("s1", 3)
	l, _ := m.Create(snap)
	cur := snap.Assignment.Clone()
	good := patchRecord(cur, 1, "h0", "ubt1404")
	if err := l.Append(good); err != nil {
		t.Fatal(err)
	}
	// A record whose journaled hash does not match its own patch: framing
	// validates, replay must reject it and keep the state before it.
	bad := patchRecord(cur, 2, "h1", "osx109")
	bad.Hash = "deadbeefdeadbeef"
	if err := l.Append(bad); err != nil {
		t.Fatal(err)
	}
	m.Close()

	m2 := openManager(t, Options{Dir: dir})
	recovered, _, err := m2.Recover()
	if err != nil || len(recovered) != 1 {
		t.Fatalf("Recover: %v", err)
	}
	got := recovered[0]
	if got.Snapshot.Version != 2 || got.Snapshot.Hash != good.Hash {
		t.Fatalf("recovered version %d hash %s, want 2 / %s", got.Snapshot.Version, got.Snapshot.Hash, good.Hash)
	}
}

func TestCompactionTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, Options{Dir: dir, SnapshotEvery: 3})
	snap := testSnapshot("s1", 3)
	l, _ := m.Create(snap)
	cur := snap.Assignment.Clone()
	for v := uint64(1); v < 4; v++ {
		if err := l.Append(patchRecord(cur, v, "h0", []netmodel.ProductID{"win7", "ubt1404", "osx109"}[v%3])); err != nil {
			t.Fatal(err)
		}
	}
	if !l.ShouldSnapshot() {
		t.Fatal("ShouldSnapshot false after SnapshotEvery records")
	}
	snap2 := testSnapshot("s1", 3)
	snap2.Version = 4
	snap2.Assignment = cur.Clone()
	snap2.Hash = cur.Hash()
	if err := l.WriteSnapshot(snap2); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if l.ShouldSnapshot() {
		t.Fatal("ShouldSnapshot still true after compaction")
	}

	// Exactly one snapshot and one (fresh) segment remain.
	entries, _ := os.ReadDir(sessDir(dir, "s1"))
	var snaps, segs int
	for _, e := range entries {
		switch {
		case strings.HasPrefix(e.Name(), "snap-"):
			snaps++
		case strings.HasPrefix(e.Name(), "wal-"):
			segs++
		}
	}
	if snaps != 1 || segs != 1 {
		t.Fatalf("after compaction: %d snapshots, %d segments", snaps, segs)
	}
	m.Close()

	m2 := openManager(t, Options{Dir: dir})
	recovered, _, err := m2.Recover()
	if err != nil || len(recovered) != 1 {
		t.Fatalf("Recover: %v", err)
	}
	got := recovered[0]
	if got.Snapshot.Version != 4 || got.Replayed != 0 || got.Snapshot.Hash != cur.Hash() {
		t.Fatalf("recovered from compacted snapshot: version %d replayed %d", got.Snapshot.Version, got.Replayed)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, Options{Dir: dir, SegmentBytes: 1}) // rotate every append
	snap := testSnapshot("s1", 3)
	l, _ := m.Create(snap)
	cur := snap.Assignment.Clone()
	for v := uint64(1); v < 5; v++ {
		if err := l.Append(patchRecord(cur, v, "h0", []netmodel.ProductID{"win7", "ubt1404", "osx109"}[v%3])); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	entries, _ := os.ReadDir(sessDir(dir, "s1"))
	segs := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			segs++
		}
	}
	if segs < 3 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", segs)
	}

	m2 := openManager(t, Options{Dir: dir})
	recovered, _, err := m2.Recover()
	if err != nil || len(recovered) != 1 {
		t.Fatalf("Recover: %v", err)
	}
	if got := recovered[0]; got.Snapshot.Version != 5 || got.Replayed != 4 {
		t.Fatalf("cross-segment replay: version %d replayed %d", got.Snapshot.Version, got.Replayed)
	}
}

func TestRemoveSession(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, Options{Dir: dir})
	if _, err := m.Create(testSnapshot("s1", 3)); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("s1"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := os.Stat(sessDir(dir, "s1")); !os.IsNotExist(err) {
		t.Fatalf("session directory survived removal: %v", err)
	}
	m.Close()
	m2 := openManager(t, Options{Dir: dir})
	recovered, skipped, err := m2.Recover()
	if err != nil || len(recovered) != 0 || len(skipped) != 0 {
		t.Fatalf("Recover after remove: %v %d %d", err, len(recovered), len(skipped))
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"always": SyncAlways, "interval": SyncInterval, "never": SyncNever, "": SyncNever,
		"Always": SyncAlways,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}

func TestValidID(t *testing.T) {
	for _, ok := range []string{"net-1", "a", "A_b.c-9", strings.Repeat("x", 64)} {
		if !validID(ok) {
			t.Errorf("validID(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", ".", "..", "a/b", "a\\b", strings.Repeat("x", 65), "a b"} {
		if validID(bad) {
			t.Errorf("validID(%q) = true", bad)
		}
	}
}

// TestRecoverSurvivesDoubleCrash pins the double-crash scenario: a torn
// frame left mid-chain in an abandoned segment by a first recovery must not
// mask records durably acked after that recovery.  Regression: the segment
// scan used to stop at the first torn frame and reopen — truncating — the
// very segment holding the post-recovery records.
func TestRecoverSurvivesDoubleCrash(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, Options{Dir: dir, Policy: SyncAlways})
	snap := testSnapshot("s1", 3)
	l, err := m.Create(snap)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	cur := snap.Assignment.Clone()
	for v := uint64(1); v < 4; v++ {
		if err := l.Append(patchRecord(cur, v, "h0", []netmodel.ProductID{"win7", "ubt1404", "osx109"}[v%3])); err != nil {
			t.Fatalf("Append v%d: %v", v, err)
		}
	}
	m.Close()
	// Crash #1 leaves a torn frame at the tail of the only segment.
	full := AppendFrame(nil, []byte(`{"prev_version":4,"version":5,"hash":"x"}`))
	appendGarbage(t, dir, "s1", full[:len(full)-3])

	// The first recovery abandons the torn tail in place and acks two more
	// records into a fresh segment past it.
	m2 := openManager(t, Options{Dir: dir, Policy: SyncAlways})
	recovered, skipped, err := m2.Recover()
	if err != nil || len(skipped) != 0 || len(recovered) != 1 {
		t.Fatalf("first recovery: %v (%d recovered, %d skipped)", err, len(recovered), len(skipped))
	}
	if got := recovered[0]; got.Snapshot.Version != 4 || !got.TornTail {
		t.Fatalf("first recovery: version %d torn %v, want 4/true", got.Snapshot.Version, got.TornTail)
	}
	var ackedHash string
	for v := uint64(4); v < 6; v++ {
		rec := patchRecord(cur, v, "h1", []netmodel.ProductID{"win7", "ubt1404", "osx109"}[v%3])
		if err := recovered[0].Log.Append(rec); err != nil {
			t.Fatalf("post-recovery Append v%d: %v", v, err)
		}
		ackedHash = rec.Hash
	}
	m2.Close()

	// Crash #2: the stale torn frame is still sitting mid-chain.  Recovery
	// must replay past it into the later segment and land on the last acked
	// record — with fsync=always, losing it would break the ack contract.
	m3 := openManager(t, Options{Dir: dir, Policy: SyncAlways})
	recovered3, skipped3, err := m3.Recover()
	if err != nil || len(skipped3) != 0 || len(recovered3) != 1 {
		t.Fatalf("second recovery: %v (%d recovered, %d skipped)", err, len(recovered3), len(skipped3))
	}
	got := recovered3[0]
	if got.Snapshot.Version != 6 || got.Snapshot.Hash != ackedHash {
		t.Fatalf("second recovery lost acked records: v%d/%s, want v6/%s",
			got.Snapshot.Version, got.Snapshot.Hash, ackedHash)
	}
	if !got.Snapshot.Assignment.Equal(cur) {
		t.Fatal("second recovery diverged from the acked assignment")
	}
	// The recovered log still accepts the next record in the chain.
	if err := got.Log.Append(patchRecord(cur, 6, "h2", "osx109")); err != nil {
		t.Fatalf("append after double recovery: %v", err)
	}
}

// TestOpenLogNeverTruncatesExisting pins the no-clobber rule of the
// post-recovery tail: a name collision with an existing non-empty segment (a
// stale tail holding only a torn frame) renames the stale file aside instead
// of truncating it, and the next compaction cleans it up.
func TestOpenLogNeverTruncatesExisting(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, Options{Dir: dir, SnapshotEvery: 1})
	snap := testSnapshot("s1", 3)
	if _, err := m.Create(snap); err != nil {
		t.Fatalf("Create: %v", err)
	}
	m.Close()
	// Crash artifact: the fresh tail wal-2 holds only a torn frame, so
	// recovery replays nothing from it and reuses its name for the new tail.
	full := AppendFrame(nil, []byte(`{"prev_version":1,"version":2,"hash":"x"}`))
	garbage := full[:len(full)-2]
	appendGarbage(t, dir, "s1", garbage)

	m2 := openManager(t, Options{Dir: dir, SnapshotEvery: 1})
	recovered, _, err := m2.Recover()
	if err != nil || len(recovered) != 1 {
		t.Fatalf("Recover: %v (%d recovered)", err, len(recovered))
	}
	stale := 0
	entries, _ := os.ReadDir(sessDir(dir, "s1"))
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), staleSuffix) {
			stale++
			if fi, err := e.Info(); err != nil || fi.Size() != int64(len(garbage)) {
				t.Fatalf("stale segment bytes were not preserved: %v %v", fi, err)
			}
		}
	}
	if stale != 1 {
		t.Fatalf("colliding segment was truncated, not renamed aside (%d stale files)", stale)
	}
	// The fresh tail accepts the next record, and the compaction it triggers
	// (SnapshotEvery=1) deletes the stale file.
	cur := snap.Assignment.Clone()
	if err := recovered[0].Log.Append(patchRecord(cur, 1, "h0", "ubt1404")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	snap2 := testSnapshot("s1", 3)
	snap2.Version = 2
	snap2.Assignment = cur.Clone()
	snap2.Hash = cur.Hash()
	if err := recovered[0].Log.WriteSnapshot(snap2); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	entries, _ = os.ReadDir(sessDir(dir, "s1"))
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), staleSuffix) {
			t.Fatalf("compaction left stale segment %s behind", e.Name())
		}
	}
	m2.Close()

	m3 := openManager(t, Options{Dir: dir})
	recovered3, _, err := m3.Recover()
	if err != nil || len(recovered3) != 1 || recovered3[0].Snapshot.Version != 2 {
		t.Fatalf("recovery after stale rename: %v (%+v)", err, recovered3)
	}
}

// TestReservedSessionID pins that a session named after a reserved top-level
// file (FORMAT) lives under sessions/ and cannot clobber the format marker —
// which previously made every subsequent Open refuse to boot.
func TestReservedSessionID(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, Options{Dir: dir})
	if _, err := m.Create(testSnapshot("FORMAT", 3)); err != nil {
		t.Fatalf("Create(FORMAT): %v", err)
	}
	m.Close()
	m2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open after FORMAT session: %v", err)
	}
	defer m2.Close()
	recovered, skipped, err := m2.Recover()
	if err != nil || len(skipped) != 0 || len(recovered) != 1 || recovered[0].Snapshot.ID != "FORMAT" {
		t.Fatalf("Recover: %v (%d recovered, %d skipped)", err, len(recovered), len(skipped))
	}
}

// TestPartialFormatMarkerRewritten pins that an empty or torn-mid-write
// format marker reads as absent and is rewritten, instead of bricking the
// data directory.
func TestPartialFormatMarkerRewritten(t *testing.T) {
	for _, partial := range []string{"", "divd-w"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, formatFile), []byte(partial), 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open with marker %q: %v", partial, err)
		}
		m.Close()
		raw, err := os.ReadFile(filepath.Join(dir, formatFile))
		if err != nil || string(raw) != formatV1 {
			t.Fatalf("marker %q not repaired: %q, %v", partial, raw, err)
		}
	}
}

func TestFormatGuard(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, formatFile), []byte("divd-wal v999\n"), 0o644)
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted an unknown format marker")
	}
}

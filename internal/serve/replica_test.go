package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"netdiversity/internal/netmodel"
	"netdiversity/internal/wal"
)

// TestReplicaResyncNeverHidesSession hammers every read endpoint a follower
// serves while ReplicaCreate re-installs the same session over and over (what
// a full-sync repair does).  The session exists on both nodes throughout, so
// every read must answer 200: never 404 (ID missing between the old
// incarnation's removal and the new one's insert), never 409 (inserted but
// not yet published), and a read queued on the replaced incarnation's writer
// slot must follow the swap.
func TestReplicaResyncNeverHidesSession(t *testing.T) {
	for _, persist := range []bool{false, true} {
		t.Run(fmt.Sprintf("persist=%v", persist), func(t *testing.T) {
			primary, pts := newTestServer(t, Config{})
			const hosts = 12
			if status := do(t, http.MethodPost, pts.URL+"/v1/networks", CreateRequest{
				ID: "r0", Spec: testSpec(hosts), Seed: 3,
			}, nil); status != http.StatusCreated {
				t.Fatalf("create: status %d", status)
			}
			snap, err := primary.CurrentSnapshot("r0")
			if err != nil {
				t.Fatal(err)
			}

			cfg := Config{}
			if persist {
				cfg.Persist = openWAL(t, t.TempDir(), wal.Options{})
			}
			follower, fts := newTestServer(t, cfg)
			follower.SetFollower(pts.URL)
			if err := follower.ReplicaCreate(snap); err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			read := func(method string, url func(i int) string, body string) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					req, err := http.NewRequest(method, url(i), strings.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					msg, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s %s during re-sync: status %d: %s", method, url(i), resp.StatusCode, msg)
						return
					}
				}
			}
			fixed := func(path string) func(int) string {
				return func(int) string { return fts.URL + "/v1/networks/r0" + path }
			}
			wg.Add(4)
			go read(http.MethodGet, fixed(""), "")
			go read(http.MethodGet, fixed("/assignment"), "")
			// A new entry/target pair every request misses the encoded cache,
			// so the handler queues on the writer slot.
			go read(http.MethodGet, func(i int) string {
				return fmt.Sprintf("%s/v1/networks/r0/metrics?entry=h%d&target=h%d", fts.URL, i%hosts, (i+1+(i/hosts)%(hosts-1))%hosts)
			}, "")
			go read(http.MethodPost, fixed("/assess"), `{"runs":5,"max_ticks":20}`)

			for i := 0; i < 300 && !t.Failed(); i++ {
				if err := follower.ReplicaCreate(snap); err != nil {
					t.Errorf("re-sync %d: %v", i, err)
					break
				}
			}
			close(stop)
			wg.Wait()
			if n := follower.store.len(); n != 1 {
				t.Errorf("store holds %d sessions after the re-syncs, want 1", n)
			}
		})
	}
}

// recordingReplicator captures the Replicator events a server emits.
type recordingReplicator struct {
	mu      sync.Mutex
	records []*wal.Record
	deleted []string
}

func (r *recordingReplicator) SessionCreated(*wal.SessionSnapshot) {}

func (r *recordingReplicator) RecordCommitted(_ string, rec *wal.Record) {
	r.mu.Lock()
	r.records = append(r.records, rec)
	r.mu.Unlock()
}

func (r *recordingReplicator) SessionDeleted(id string) {
	r.mu.Lock()
	r.deleted = append(r.deleted, id)
	r.mu.Unlock()
}

func (r *recordingReplicator) deletions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.deleted)
}

// replicaFixture is a primary that published r0 at versions 1..3 and a
// persistent follower holding r0 at version 1, with the two records that lead
// from there in hand.
type replicaFixture struct {
	primary, follower *Server
	fts               *httptest.Server
	events            *recordingReplicator // the follower's
	ffs               *wal.FaultFS
	dir               string // the follower's r0 directory
	snap              *wal.SessionSnapshot
	recs              []*wal.Record
}

func newReplicaFixture(t *testing.T) *replicaFixture {
	t.Helper()
	fx := &replicaFixture{events: &recordingReplicator{}, ffs: wal.NewFaultFS(wal.OS)}
	source := &recordingReplicator{}
	var pts *httptest.Server
	fx.primary, pts = newTestServer(t, Config{Replicator: source})
	if status := do(t, http.MethodPost, pts.URL+"/v1/networks", CreateRequest{
		ID: "r0", Spec: testSpec(6), Seed: 3,
	}, nil); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	var err error
	if fx.snap, err = fx.primary.CurrentSnapshot("r0"); err != nil {
		t.Fatal(err)
	}
	for i, d := range []netmodel.Delta{addHostDelta("x1", "h0"), addHostDelta("x2", "h1")} {
		if status := do(t, http.MethodPost, pts.URL+"/v1/networks/r0/deltas", d, nil); status != http.StatusOK {
			t.Fatalf("delta %d: status %d", i, status)
		}
	}
	if fx.recs = source.records; len(fx.recs) != 2 {
		t.Fatalf("primary committed %d records, want 2", len(fx.recs))
	}
	data := t.TempDir()
	fx.dir = filepath.Join(data, "sessions", "r0")
	fx.follower, fx.fts = newTestServer(t, Config{
		Persist:    openWAL(t, data, wal.Options{FS: fx.ffs}),
		Replicator: fx.events,
	})
	fx.follower.SetFollower(pts.URL)
	if err := fx.follower.ReplicaCreate(fx.snap); err != nil {
		t.Fatal(err)
	}
	return fx
}

// assertUntouched checks that the follower still serves r0 at the fixture
// snapshot: same version and hash, a self-consistent full snapshot, a 200 on
// the read path, its directory in place and no deletion event.
func (fx *replicaFixture) assertUntouched(t *testing.T) {
	t.Helper()
	if v, h, ok := fx.follower.ReplicaVersion("r0"); !ok || v != fx.snap.Version || h != fx.snap.Hash {
		t.Fatalf("replica at %d/%s (present %v), want %d/%s", v, h, ok, fx.snap.Version, fx.snap.Hash)
	}
	cur, err := fx.follower.CurrentSnapshot("r0")
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := netmodel.FromSpec(cur.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := cur.Assignment.ValidateFor(net); err != nil {
		t.Fatalf("served network and assignment disagree: %v", err)
	}
	var got AssignmentResponse
	if status := do(t, http.MethodGet, fx.fts.URL+"/v1/networks/r0/assignment", nil, &got); status != http.StatusOK || got.Version != fx.snap.Version {
		t.Fatalf("read: status %d version %d", status, got.Version)
	}
	if _, err := os.Stat(fx.dir); err != nil {
		t.Fatalf("replica directory: %v", err)
	}
	if n := fx.events.deletions(); n != 0 {
		t.Fatalf("%d SessionDeleted events for a replica that was kept", n)
	}
}

// TestReplicaApplyFailureModes pins what each way a replica apply can fail
// leaves behind: everything that fails before the network mutates leaves the
// replica exactly as it was (and still advanceable), a record whose deltas
// cannot replay retires the session, and retiring is idempotent.
func TestReplicaApplyFailureModes(t *testing.T) {
	t.Run("chain gap", func(t *testing.T) {
		fx := newReplicaFixture(t)
		if err := fx.follower.ReplicaApply("r0", fx.recs[1]); err == nil {
			t.Fatal("record 2->3 applied on a replica at 1")
		}
		fx.assertUntouched(t)
		for _, rec := range fx.recs {
			if err := fx.follower.ReplicaApply("r0", rec); err != nil {
				t.Fatalf("apply %d after the gap error: %v", rec.Version, err)
			}
		}
		pv, ph, _ := fx.primary.ReplicaVersion("r0")
		if v, h, _ := fx.follower.ReplicaVersion("r0"); v != pv || h != ph {
			t.Fatalf("follower at %d/%s, primary at %d/%s", v, h, pv, ph)
		}
	})
	t.Run("hash mismatch", func(t *testing.T) {
		fx := newReplicaFixture(t)
		bad := *fx.recs[0]
		bad.Hash = "0000000000000000"
		if err := fx.follower.ReplicaApply("r0", &bad); err == nil {
			t.Fatal("record with a wrong hash applied")
		}
		fx.assertUntouched(t)
		if err := fx.follower.ReplicaApply("r0", fx.recs[0]); err != nil {
			t.Fatalf("genuine record after the mismatch: %v", err)
		}
	})
	t.Run("append failure", func(t *testing.T) {
		fx := newReplicaFixture(t)
		fx.ffs.FailWrites(errors.New("EIO"))
		if err := fx.follower.ReplicaApply("r0", fx.recs[0]); !errors.Is(err, wal.ErrDegraded) {
			t.Fatalf("apply on a dead disk: %v, want ErrDegraded", err)
		}
		fx.assertUntouched(t)
		// The retry and the full sync a follower would try next are refused
		// the same way; neither may cost the replica it still serves.
		if err := fx.follower.ReplicaApply("r0", fx.recs[0]); !errors.Is(err, wal.ErrDegraded) {
			t.Fatalf("retry: %v, want ErrDegraded", err)
		}
		if err := fx.follower.ReplicaCreate(fx.snap); !errors.Is(err, wal.ErrDegraded) {
			t.Fatalf("full sync on a degraded node: %v, want ErrDegraded", err)
		}
		fx.assertUntouched(t)
	})
	t.Run("unappliable delta", func(t *testing.T) {
		fx := newReplicaFixture(t)
		// The patch and hash are genuine, so the record verifies and is
		// journaled; its network replay then trips over a host that exists.
		bad := *fx.recs[0]
		bad.Deltas = []netmodel.Delta{addHostDelta("h0", "h1")}
		if err := fx.follower.ReplicaApply("r0", &bad); err == nil {
			t.Fatal("record re-adding h0 applied")
		}
		if _, _, ok := fx.follower.ReplicaVersion("r0"); ok {
			t.Fatal("replica with a half-replayed network still served")
		}
		if _, err := os.Stat(fx.dir); !os.IsNotExist(err) {
			t.Fatalf("retired replica's directory: %v", err)
		}
		if n := fx.events.deletions(); n != 1 {
			t.Fatalf("%d SessionDeleted events, want 1", n)
		}
	})
	t.Run("writable session", func(t *testing.T) {
		fx := newReplicaFixture(t)
		if err := fx.primary.ReplicaApply("r0", fx.recs[0]); !errors.Is(err, errNotReplica) {
			t.Fatalf("replica apply on a session with an optimiser: %v, want errNotReplica", err)
		}
	})
	t.Run("retire twice", func(t *testing.T) {
		fx := newReplicaFixture(t)
		sess, _ := fx.follower.store.get("r0")
		sess.writer <- struct{}{}
		fx.follower.retire(sess)
		fx.follower.retire(sess)
		sess.unlock()
		if n := fx.events.deletions(); n != 1 {
			t.Fatalf("%d SessionDeleted events, want 1", n)
		}
		if n := fx.follower.store.len(); n != 0 {
			t.Fatalf("store holds %d sessions after retire", n)
		}
	})
}

// TestConstructionPathsDifferOnlyByRole builds the same session three ways —
// Restore on a primary, Restore on a follower then Promote, ReplicaCreate then
// Promote — from one primary's data directory and full snapshot.  Once all
// three are writable nothing may tell them apart: same published version, a
// byte-equal full snapshot, and the same answer to the same delta.
func TestConstructionPathsDifferOnlyByRole(t *testing.T) {
	origin := t.TempDir()
	m := openWAL(t, origin, wal.Options{})
	source, ts := newTestServer(t, Config{Persist: m})
	if status := do(t, http.MethodPost, ts.URL+"/v1/networks", CreateRequest{
		ID: "c0", Spec: testSpec(8), Seed: 5, MaxIterations: 40,
		Similarity: &SimilaritySpec{
			Kind:    "custom",
			Default: 0.25,
			Entries: []SimilarityEntry{{A: "win7", B: "ubt1404", Sim: 0.9}},
		},
	}, nil); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	for i, d := range []netmodel.Delta{addHostDelta("x1", "h0"), addHostDelta("x2", "h3")} {
		if status := do(t, http.MethodPost, ts.URL+"/v1/networks/c0/deltas", d, nil); status != http.StatusOK {
			t.Fatalf("delta %d: status %d", i, status)
		}
	}
	full, err := source.CurrentSnapshot("c0")
	if err != nil {
		t.Fatal(err)
	}
	m.Close()

	restore := func(follower bool) *Server {
		// Each manager recovers (and then appends to) its own copy.
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(origin)); err != nil {
			t.Fatal(err)
		}
		m := openWAL(t, dir, wal.Options{})
		recovered, skipped, err := m.Recover()
		if err != nil || len(skipped) != 0 || len(recovered) != 1 {
			t.Fatalf("Recover: %v (%d recovered, %d skipped)", err, len(recovered), len(skipped))
		}
		srv := New(Config{Persist: m})
		if follower {
			srv.SetFollower("http://primary.invalid")
		}
		if err := srv.Restore(recovered[0]); err != nil {
			t.Fatalf("Restore: %v", err)
		}
		return srv
	}
	replica := New(Config{})
	replica.SetFollower("http://primary.invalid")
	if err := replica.ReplicaCreate(full); err != nil {
		t.Fatalf("ReplicaCreate: %v", err)
	}
	paths := []struct {
		name    string
		srv     *Server
		promote bool
	}{
		{"restore on primary", restore(false), false},
		{"restore on follower + promote", restore(true), true},
		{"replica create + promote", replica, true},
	}

	type outcome struct {
		version  uint64
		hash     string
		snapshot string
		delta    DeltaResponse
	}
	var want outcome
	for i, p := range paths {
		if p.promote {
			if sess, _ := p.srv.store.get("c0"); sess.opt != nil {
				t.Fatalf("%s: replica was built with an optimiser", p.name)
			}
			if n, err := p.srv.Promote(); err != nil || n != 1 {
				t.Fatalf("%s: Promote = %d, %v", p.name, n, err)
			}
		}
		var got outcome
		got.version, got.hash, _ = p.srv.ReplicaVersion("c0")
		cur, err := p.srv.CurrentSnapshot("c0")
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		raw, err := json.Marshal(cur)
		if err != nil {
			t.Fatal(err)
		}
		got.snapshot = string(raw)
		ts := httptest.NewServer(p.srv.Handler())
		status := do(t, http.MethodPost, ts.URL+"/v1/networks/c0/deltas", addHostDelta("x3", "h5"), &got.delta)
		ts.Close()
		if status != http.StatusOK {
			t.Fatalf("%s: delta status %d", p.name, status)
		}
		got.delta.WallMS = 0
		if i == 0 {
			want = got
			if want.version != full.Version || want.hash != full.Hash {
				t.Fatalf("%s: at %d/%s, source was at %d/%s", p.name, want.version, want.hash, full.Version, full.Hash)
			}
			continue
		}
		if got != want {
			t.Errorf("%s differs from %s:\n got %+v\nwant %+v", p.name, paths[0].name, got, want)
		}
	}
}

// streamingReplicator forwards every committed record to a channel — a
// replication transport reduced to its essence.
type streamingReplicator struct{ records chan *wal.Record }

func (r *streamingReplicator) SessionCreated(*wal.SessionSnapshot) {}
func (r *streamingReplicator) SessionDeleted(string)               {}
func (r *streamingReplicator) RecordCommitted(_ string, rec *wal.Record) {
	r.records <- rec
}

// TestSharedAssignmentUnderConcurrentFirstReads runs what sharing one sealed
// assignment between the optimiser, the published snapshot, the record stream
// and lock-free readers has to survive, under the race detector: a delta
// stream on a primary whose records a follower applies as they commit, with
// eight readers on each node racing every publication to the first (encode
// miss) read of the new version.  Every body read for a version, on either
// node, must be byte-identical, and its assignment must hash to the value the
// body announces — the host order the encoder and Hash walk is built before
// the assignment is published, never under the readers.
func TestSharedAssignmentUnderConcurrentFirstReads(t *testing.T) {
	const deltas, readers = 40, 8
	stream := &streamingReplicator{records: make(chan *wal.Record, deltas)} // every record of the run fits: the hook never blocks
	primary, pts := newTestServer(t, Config{Replicator: stream})
	if status := do(t, http.MethodPost, pts.URL+"/v1/networks", CreateRequest{
		ID: "r0", Spec: testSpec(40), Seed: 3,
	}, nil); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	snap, err := primary.CurrentSnapshot("r0")
	if err != nil {
		t.Fatal(err)
	}
	follower, fts := newTestServer(t, Config{})
	follower.SetFollower(pts.URL)
	if err := follower.ReplicaCreate(snap); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	bodies := make(map[uint64]string) // version → the one body every reader must see
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, base := range []string{pts.URL, fts.URL} {
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := http.Get(base + "/v1/networks/r0/assignment")
					if err != nil {
						t.Error(err)
						return
					}
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					var got AssignmentResponse
					if err := json.Unmarshal(raw, &got); err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("read: status %d: %v", resp.StatusCode, err)
						return
					}
					if h := got.Assignment.Hash(); h != got.AssignmentHash {
						t.Errorf("version %d: body hashes to %s, announces %s", got.Version, h, got.AssignmentHash)
						return
					}
					mu.Lock()
					first, seen := bodies[got.Version]
					if !seen {
						bodies[got.Version] = string(raw)
					}
					mu.Unlock()
					if seen && first != string(raw) {
						t.Errorf("version %d read two different bodies:\n%s\n%s", got.Version, first, raw)
						return
					}
				}
			}()
		}
	}
	applied := make(chan struct{})
	go func() {
		defer close(applied)
		for i := 0; i < deltas; i++ {
			if err := follower.ReplicaApply("r0", <-stream.records); err != nil {
				t.Errorf("replica apply %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < deltas; i++ {
		d := addHostDelta(netmodel.HostID(fmt.Sprintf("x%d", i)), netmodel.HostID(fmt.Sprintf("h%d", i%40)))
		if i%4 == 3 {
			d = netmodel.Delta{Ops: []netmodel.DeltaOp{{Op: netmodel.OpRemoveHost, ID: netmodel.HostID(fmt.Sprintf("x%d", i-2))}}}
		}
		if status := do(t, http.MethodPost, pts.URL+"/v1/networks/r0/deltas", d, nil); status != http.StatusOK {
			t.Fatalf("delta %d: status %d", i, status)
		}
	}
	<-applied
	close(stop)
	wg.Wait()

	pv, ph, _ := primary.ReplicaVersion("r0")
	fv, fh, _ := follower.ReplicaVersion("r0")
	if pv != deltas+1 || fv != pv || fh != ph {
		t.Fatalf("primary at %d/%s, follower at %d/%s, want version %d on both", pv, ph, fv, fh, deltas+1)
	}
	if len(bodies) < deltas/4 {
		t.Fatalf("readers saw only %d versions of %d", len(bodies), deltas+1)
	}
}

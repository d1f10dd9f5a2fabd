package replic

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"netdiversity/internal/netmodel"
	"netdiversity/internal/serve"
	"netdiversity/internal/wal"
)

// The chaos harness boots in-process divd-shaped nodes — serve.Server,
// Primary hook, optional Follower, HTTP surface composed exactly like
// cmd/divd — and drives them through seeded fault schedules: dropped and
// duplicated pushes, delayed deliveries, partitions, follower restarts with
// WAL recovery, primary kill and promotion.  Every schedule must end with
// each follower at the primary's exact per-session version and assignment
// hash, byte-identical reads included.

// chaosSpec builds a small chain network over the paper OS products.
func chaosSpec(hosts int) netmodel.Spec {
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

// addHostDelta builds a delta joining one chain host wired to an anchor.
func addHostDelta(id, anchor netmodel.HostID) netmodel.Delta {
	return netmodel.Delta{Ops: []netmodel.DeltaOp{
		{Op: netmodel.OpAddHost, Host: &netmodel.HostSpec{
			ID:       id,
			Services: []netmodel.ServiceID{"os"},
			Choices:  map[netmodel.ServiceID][]netmodel.ProductID{"os": {"win7", "ubt1404", "osx109"}},
		}},
		{Op: netmodel.OpAddEdge, A: anchor, B: id},
	}}
}

// chaosNode is one in-process node of a replication pair.
type chaosNode struct {
	t    *testing.T
	srv  *serve.Server
	prim *Primary
	fol  atomic.Pointer[Follower]
	hs   *httptest.Server
	mgr  *wal.Manager
	dir  string
}

// startChaosNode boots a node.  followURL makes it a follower of that
// primary; client carries the (possibly fault-injecting) transport used for
// both push and pull.  The follower's anti-entropy loop is NOT started —
// tests drive SyncOnce explicitly so schedules are reproducible.
func startChaosNode(t *testing.T, dir, followURL string, client *http.Client) *chaosNode {
	t.Helper()
	mgr, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	n := &chaosNode{t: t, mgr: mgr, dir: dir}
	n.prim = NewPrimary(PrimaryOptions{Client: client})
	cfg := serve.Config{
		Persist:    mgr,
		Replicator: n.prim,
		OnPromote: func() {
			if f := n.fol.Load(); f != nil {
				f.Stop()
			}
		},
	}
	n.srv = serve.New(cfg)
	n.prim.Bind(n.srv)
	mux := http.NewServeMux()
	mux.HandleFunc(PathIngest, func(w http.ResponseWriter, r *http.Request) {
		f := n.fol.Load()
		if f == nil {
			http.NotFound(w, r)
			return
		}
		f.IngestHandler().ServeHTTP(w, r)
	})
	mux.Handle("/v1/replic/", n.prim.Handler())
	mux.Handle("/", n.srv.Handler())
	n.hs = httptest.NewServer(mux)
	if followURL != "" {
		n.srv.SetFollower(followURL)
		// No recovery here: fresh-boot followers start empty.  Interval is
		// irrelevant (Run is never called); Advertise points the primary's
		// push stream at this node.
		n.fol.Store(NewFollower(n.srv, followURL, FollowerOptions{
			Client:    client,
			Interval:  time.Hour,
			Advertise: n.hs.URL,
		}))
	}
	t.Cleanup(func() { n.close() })
	return n
}

func (n *chaosNode) close() {
	if n.hs != nil {
		n.hs.Close()
		n.hs = nil
	}
	if f := n.fol.Load(); f != nil {
		f.Stop()
	}
	n.prim.Close()
	if n.mgr != nil {
		n.mgr.Close()
		n.mgr = nil
	}
}

// restartFollower simulates a follower crash + reboot: the node is torn down
// without ceremony and a new one recovers the replica sessions from the same
// data directory, exactly as divd boot with -follow does.
func restartFollower(t *testing.T, old *chaosNode, followURL string, client *http.Client) *chaosNode {
	t.Helper()
	old.close()
	n := startChaosNode(t, old.dir, followURL, client)
	recovered, skipped, err := n.mgr.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	for _, sk := range skipped {
		t.Fatalf("recovery skipped %s: %v", sk.ID, sk.Err)
	}
	for _, rec := range recovered {
		if err := n.srv.Restore(rec); err != nil {
			t.Fatalf("restore replica %s: %v", rec.Snapshot.ID, err)
		}
	}
	return n
}

// httpJSON posts a JSON body and decodes the response, returning the status.
func httpJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := noRedirectClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

// noRedirectClient never follows redirects — follower writes answer 307 at
// the (possibly dead) primary, which the tests assert rather than chase.
var noRedirectClient = &http.Client{
	CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
}

// createSessions creates n sessions on the primary and returns their IDs.
func createSessions(t *testing.T, primary *chaosNode, n, hosts int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("chaos-%d", i)
		var created serve.CreateResponse
		status := httpJSON(t, http.MethodPost, primary.hs.URL+"/v1/networks", serve.CreateRequest{
			ID:            id,
			Spec:          chaosSpec(hosts),
			Seed:          int64(42 + i),
			MaxIterations: 20,
		}, &created)
		if status != http.StatusCreated {
			t.Fatalf("create %s: status %d", id, status)
		}
		ids = append(ids, id)
	}
	return ids
}

// writeDeltas posts k add-host deltas per session, returning the last acked
// (version, hash) per session — the writes the replication plane must never
// lose once a caught-up follower is promoted.
func writeDeltas(t *testing.T, primary *chaosNode, ids []string, k, offset int) map[string]serve.DeltaResponse {
	t.Helper()
	acked := make(map[string]serve.DeltaResponse, len(ids))
	for _, id := range ids {
		for j := 0; j < k; j++ {
			d := addHostDelta(
				netmodel.HostID(fmt.Sprintf("x%d-%d", offset, j)),
				"h0",
			)
			var resp serve.DeltaResponse
			status := httpJSON(t, http.MethodPost, primary.hs.URL+"/v1/networks/"+id+"/deltas", d, &resp)
			if status != http.StatusOK {
				t.Fatalf("delta %s/%d: status %d", id, j, status)
			}
			acked[id] = resp
		}
	}
	return acked
}

// converge runs anti-entropy rounds until every session on the follower
// matches the primary's published version and hash, failing after maxRounds.
func converge(t *testing.T, primary, follower *chaosNode, ids []string, maxRounds int) {
	t.Helper()
	f := follower.fol.Load()
	for round := 0; round < maxRounds; round++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := f.SyncOnce(ctx)
		cancel()
		if err == nil {
			matched := 0
			for _, id := range ids {
				pv, ph, ok := primary.srv.ReplicaVersion(id)
				if !ok {
					break
				}
				fv, fh, ok := follower.srv.ReplicaVersion(id)
				if ok && fv == pv && fh == ph {
					matched++
				}
			}
			if matched == len(ids) {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower did not converge within %d rounds: %+v", maxRounds, f.Stats())
}

// assertIdenticalReads pins the replica-read contract: the follower serves
// byte-identical assignment responses to the primary at the same version.
func assertIdenticalReads(t *testing.T, primary, follower *chaosNode, ids []string) {
	t.Helper()
	for _, id := range ids {
		path := "/v1/networks/" + id + "/assignment"
		pb := getBody(t, primary.hs.URL+path)
		fb := getBody(t, follower.hs.URL+path)
		if !bytes.Equal(pb, fb) {
			t.Fatalf("session %s: follower read differs from primary:\nprimary:  %s\nfollower: %s", id, pb, fb)
		}
	}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := noRedirectClient.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return data
}

// TestReplicationChaosMatrix runs the convergence contract under seeded
// fault schedules: however the transport misbehaves, anti-entropy must bring
// every follower session to the primary's exact version and assignment hash.
func TestReplicationChaosMatrix(t *testing.T) {
	schedules := []struct {
		name string
		cfg  FaultConfig
	}{
		{name: "clean", cfg: FaultConfig{Seed: 1}},
		{name: "drop-heavy", cfg: FaultConfig{Seed: 2, DropP: 0.4}},
		{name: "dup-delay", cfg: FaultConfig{Seed: 3, DupP: 0.3, DelayP: 0.3, MaxDelay: 5 * time.Millisecond}},
		{name: "everything", cfg: FaultConfig{Seed: 4, DropP: 0.25, DupP: 0.25, DelayP: 0.25, MaxDelay: 5 * time.Millisecond}},
	}
	for _, sched := range schedules {
		t.Run(sched.name, func(t *testing.T) {
			tr := NewFaultTransport(sched.cfg)
			client := &http.Client{Transport: tr, Timeout: 5 * time.Second}
			primary := startChaosNode(t, t.TempDir(), "", client)
			follower := startChaosNode(t, t.TempDir(), primary.hs.URL, client)
			ids := createSessions(t, primary, 2, 5)
			// Attach the follower before the write burst so the records flow
			// through the faulty push and pull paths, not a one-shot snapshot.
			converge(t, primary, follower, ids, 200)
			writeDeltas(t, primary, ids, 8, 0)
			converge(t, primary, follower, ids, 200)
			assertIdenticalReads(t, primary, follower, ids)
			if sched.cfg.DropP > 0 && tr.Drops.Load() == 0 {
				t.Fatalf("drop schedule injected no drops — chaos not exercised")
			}
			if sched.cfg.DupP > 0 && tr.Dups.Load() == 0 {
				t.Fatalf("dup schedule injected no duplicates — chaos not exercised")
			}
		})
	}
}

// TestReplicationPartitionHeal pins anti-entropy repair: writes landed while
// the follower was partitioned arrive after the heal by record fetch (the
// O(diff) path), not by full-log or full-snapshot transfer.
func TestReplicationPartitionHeal(t *testing.T) {
	tr := NewFaultTransport(FaultConfig{Seed: 7})
	client := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	primary := startChaosNode(t, t.TempDir(), "", client)
	follower := startChaosNode(t, t.TempDir(), primary.hs.URL, client)
	ids := createSessions(t, primary, 1, 5)
	writeDeltas(t, primary, ids, 4, 0)
	converge(t, primary, follower, ids, 100)
	f := follower.fol.Load()
	// The snapshot the primary pushed when the follower attached may still be
	// in flight — converge sees its install, its counter ticks afterwards —
	// so let that one push land before taking the baseline.
	for deadline := time.Now().Add(5 * time.Second); primary.prim.Followers()[0].SentRecords < 1; {
		if time.Now().After(deadline) {
			t.Fatalf("attach-time snapshot push never completed: %+v", primary.prim.Followers())
		}
		time.Sleep(time.Millisecond)
	}
	baseSnapshots := f.Stats().SnapshotsFetched

	tr.Partition(true)
	writeDeltas(t, primary, ids, 10, 1)
	// Partitioned rounds must fail without spinning or corrupting state.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := f.SyncOnce(ctx); err == nil {
		t.Fatalf("SyncOnce succeeded across a partition")
	}
	cancel()
	tr.Partition(false)

	converge(t, primary, follower, ids, 100)
	assertIdenticalReads(t, primary, follower, ids)
	st := f.Stats()
	if st.RecordsFetched == 0 {
		t.Fatalf("healed partition fetched no records — pushes were partitioned away, pull must repair: %+v", st)
	}
	if st.SnapshotsFetched != baseSnapshots {
		t.Fatalf("healed partition fell back to full snapshots (%d -> %d) for a 10-record diff", baseSnapshots, st.SnapshotsFetched)
	}
}

// TestDivergedReplicaResyncs pins the repair of a replica whose state at its
// own version is not the primary's (what a deposed primary's pushes leave
// behind): the primary's next record fails the replay hash check there, the
// replica keeps serving what it has rather than vanishing, and the following
// rounds replace it from a full snapshot.
func TestDivergedReplicaResyncs(t *testing.T) {
	client := &http.Client{Timeout: 5 * time.Second}
	primary := startChaosNode(t, t.TempDir(), "", client)
	follower := startChaosNode(t, t.TempDir(), primary.hs.URL, client)
	ids := createSessions(t, primary, 1, 5)
	converge(t, primary, follower, ids, 100)

	// Same version, another product on h4 — far from h0, where the next
	// delta lands, so its record's patch does not paper over the difference.
	snap, err := follower.srv.CurrentSnapshot(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	snap.Assignment = snap.Assignment.Clone()
	for _, p := range []netmodel.ProductID{"win7", "ubt1404"} {
		if cur, _ := snap.Assignment.Get("h4", "os"); cur != p {
			snap.Assignment.Set("h4", "os", p)
			break
		}
	}
	snap.Hash = snap.Assignment.Hash()
	if err := follower.srv.ReplicaCreate(snap); err != nil {
		t.Fatal(err)
	}
	f := follower.fol.Load()
	base := f.Stats()

	writeDeltas(t, primary, ids, 1, 0)
	converge(t, primary, follower, ids, 100)
	assertIdenticalReads(t, primary, follower, ids)
	st := f.Stats()
	if st.BadRecords == base.BadRecords {
		t.Fatalf("the diverged replica accepted the primary's record: %+v", st)
	}
	if st.SnapshotsFetched == base.SnapshotsFetched {
		t.Fatalf("converged without a full snapshot: %+v", st)
	}
}

// TestReplicationFollowerRestart pins follower durability: a follower
// killed and rebooted recovers its replicas from its own WAL, then
// anti-entropy catches it up on whatever it missed while down.
func TestReplicationFollowerRestart(t *testing.T) {
	client := &http.Client{Timeout: 5 * time.Second}
	primary := startChaosNode(t, t.TempDir(), "", client)
	follower := startChaosNode(t, t.TempDir(), primary.hs.URL, client)
	ids := createSessions(t, primary, 2, 5)
	writeDeltas(t, primary, ids, 6, 0)
	converge(t, primary, follower, ids, 100)

	follower = restartFollower(t, follower, primary.hs.URL, client)
	for _, id := range ids {
		v, _, ok := follower.srv.ReplicaVersion(id)
		if !ok || v == 0 {
			t.Fatalf("session %s not recovered from the follower's own WAL (v=%d ok=%v)", id, v, ok)
		}
	}
	// Writes landed while the follower was down; the recovered replica must
	// catch up incrementally from its recovered floor.
	writeDeltas(t, primary, ids, 5, 1)
	converge(t, primary, follower, ids, 100)
	assertIdenticalReads(t, primary, follower, ids)
}

// TestPromotionPreservesAckedWrites is the failover pin: after the primary
// is killed and a caught-up follower promoted, every client-acked write is
// present on the survivor — same version, same assignment hash — and the
// survivor accepts new writes.
func TestPromotionPreservesAckedWrites(t *testing.T) {
	client := &http.Client{Timeout: 5 * time.Second}
	primary := startChaosNode(t, t.TempDir(), "", client)
	follower := startChaosNode(t, t.TempDir(), primary.hs.URL, client)
	ids := createSessions(t, primary, 2, 5)
	acked := writeDeltas(t, primary, ids, 8, 0)

	// The ack-vs-replication contract (docs/REPLICATION.md): promotion
	// preserves acked writes for a *caught-up* follower, so convergence is
	// awaited before the kill.
	converge(t, primary, follower, ids, 100)

	// Follower rejects writes with a redirect at the primary while it still
	// follows.
	status := httpJSON(t, http.MethodPost, follower.hs.URL+"/v1/networks/"+ids[0]+"/deltas",
		addHostDelta("reject-me", "h0"), nil)
	if status != http.StatusTemporaryRedirect {
		t.Fatalf("follower write: status %d, want 307", status)
	}

	primary.close() // kill -9: no drain, no goodbye

	var prom serve.PromoteResponse
	if status := httpJSON(t, http.MethodPost, follower.hs.URL+"/v1/promote", nil, &prom); status != http.StatusOK {
		t.Fatalf("promote: status %d", status)
	}
	if prom.Role != "primary" || prom.Sessions != len(ids) {
		t.Fatalf("promote response: %+v", prom)
	}
	// Promotion is not repeatable: the node is already primary.
	if status := httpJSON(t, http.MethodPost, follower.hs.URL+"/v1/promote", nil, nil); status != http.StatusConflict {
		t.Fatalf("second promote: status %d, want 409", status)
	}

	for _, id := range ids {
		want := acked[id]
		var got serve.NetworkSummary
		if status := httpJSON(t, http.MethodGet, follower.hs.URL+"/v1/networks/"+id, nil, &got); status != http.StatusOK {
			t.Fatalf("survivor read %s: status %d", id, status)
		}
		if got.Version != want.Version || got.AssignmentHash != want.AssignmentHash {
			t.Fatalf("session %s: acked write lost across promotion: acked (v%d %s), survivor (v%d %s)",
				id, want.Version, want.AssignmentHash, got.Version, got.AssignmentHash)
		}
	}

	// The survivor is writable: a post-promotion delta lands and advances
	// the version chain from the replicated tip.
	var resp serve.DeltaResponse
	if status := httpJSON(t, http.MethodPost, follower.hs.URL+"/v1/networks/"+ids[0]+"/deltas",
		addHostDelta("post-promote", "h0"), &resp); status != http.StatusOK {
		t.Fatalf("post-promotion delta: status %d", status)
	}
	if want := acked[ids[0]].Version + 1; resp.Version != want {
		t.Fatalf("post-promotion version %d, want %d", resp.Version, want)
	}
}

// TestFollowerServesReads pins the follower read surface: summaries,
// assignments and metrics are served locally while creates, deltas and
// deletes redirect.
func TestFollowerServesReads(t *testing.T) {
	client := &http.Client{Timeout: 5 * time.Second}
	primary := startChaosNode(t, t.TempDir(), "", client)
	follower := startChaosNode(t, t.TempDir(), primary.hs.URL, client)
	ids := createSessions(t, primary, 1, 5)
	writeDeltas(t, primary, ids, 2, 0)
	converge(t, primary, follower, ids, 100)

	for _, path := range []string{
		"/v1/networks/" + ids[0],
		"/v1/networks/" + ids[0] + "/assignment",
		"/v1/networks/" + ids[0] + "/metrics",
	} {
		if status := httpJSON(t, http.MethodGet, follower.hs.URL+path, nil, nil); status != http.StatusOK {
			t.Fatalf("follower GET %s: status %d", path, status)
		}
	}
	var assess serve.AssessResponse
	if status := httpJSON(t, http.MethodPost, follower.hs.URL+"/v1/networks/"+ids[0]+"/assess",
		serve.AssessRequest{Runs: 50}, &assess); status != http.StatusOK {
		t.Fatalf("follower assess: status %d", status)
	}
	if status := httpJSON(t, http.MethodPost, follower.hs.URL+"/v1/networks", serve.CreateRequest{
		ID: "nope", Spec: chaosSpec(3),
	}, nil); status != http.StatusTemporaryRedirect {
		t.Fatalf("follower create: status %d, want 307", status)
	}
	req, _ := http.NewRequest(http.MethodDelete, follower.hs.URL+"/v1/networks/"+ids[0], nil)
	resp, err := noRedirectClient.Do(req)
	if err != nil {
		t.Fatalf("follower delete: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower delete: status %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc == "" {
		t.Fatalf("follower redirect carries no Location header")
	}
}

// TestSessionDeletePropagates pins deletion: a session dropped on the
// primary disappears from the follower on the next round.
func TestSessionDeletePropagates(t *testing.T) {
	client := &http.Client{Timeout: 5 * time.Second}
	primary := startChaosNode(t, t.TempDir(), "", client)
	follower := startChaosNode(t, t.TempDir(), primary.hs.URL, client)
	ids := createSessions(t, primary, 2, 4)
	converge(t, primary, follower, ids, 100)

	req, _ := http.NewRequest(http.MethodDelete, primary.hs.URL+"/v1/networks/"+ids[0], nil)
	resp, err := noRedirectClient.Do(req)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	converge(t, primary, follower, ids[1:], 100)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, ok := follower.srv.ReplicaVersion(ids[0]); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deleted session %s still live on the follower", ids[0])
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = follower.fol.Load().SyncOnce(ctx)
		cancel()
	}
}

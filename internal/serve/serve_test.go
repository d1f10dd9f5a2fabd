package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"netdiversity/internal/netgen"
	"netdiversity/internal/netmodel"
)

// testSpec builds a small chain network over the paper OS products.
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

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// do performs a request and decodes the response body into out (when
// non-nil), returning the status code.
func do(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
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
			t.Fatalf("decode %s %s response %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// errCode extracts the error envelope code of a non-2xx response.
func errCode(t *testing.T, method, url string, body any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var envelope errorBody
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatalf("decode error envelope: %v", err)
	}
	return resp.StatusCode, envelope.Error.Code
}

func TestCreateDeltaAssessRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var created CreateResponse
	status := do(t, http.MethodPost, ts.URL+"/v1/networks", CreateRequest{
		Spec: testSpec(6),
		Seed: 7,
	}, &created)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	if created.ID != "net-1" || created.Hosts != 6 || created.Links != 5 || created.Version != 1 {
		t.Fatalf("create response: %+v", created)
	}
	if created.AssignmentHash == "" || created.Solver != "trws" {
		t.Fatalf("create response: %+v", created)
	}

	var got AssignmentResponse
	if status := do(t, http.MethodGet, ts.URL+"/v1/networks/net-1/assignment", nil, &got); status != http.StatusOK {
		t.Fatalf("assignment: status %d", status)
	}
	if got.AssignmentHash != created.AssignmentHash || got.Version != 1 {
		t.Fatalf("assignment response: %+v", got)
	}
	if got.Assignment == nil || got.Assignment.Len() != 6 {
		t.Fatalf("assignment incomplete: %+v", got.Assignment)
	}

	// Apply a delta: join h6, wire it to h0.
	var dres DeltaResponse
	status = do(t, http.MethodPost, ts.URL+"/v1/networks/net-1/deltas", netmodel.Delta{Ops: []netmodel.DeltaOp{
		{Op: netmodel.OpAddHost, Host: &netmodel.HostSpec{
			ID:       "h6",
			Services: []netmodel.ServiceID{"os"},
			Choices:  map[netmodel.ServiceID][]netmodel.ProductID{"os": {"win7", "ubt1404", "osx109"}},
		}},
		{Op: netmodel.OpAddEdge, A: "h0", B: "h6"},
	}}, &dres)
	if status != http.StatusOK {
		t.Fatalf("delta: status %d", status)
	}
	if dres.Version != 2 || dres.Hosts != 7 || !dres.Incremental || dres.Ops != 2 {
		t.Fatalf("delta response: %+v", dres)
	}

	var metrics MetricsResponse
	if status := do(t, http.MethodGet, ts.URL+"/v1/networks/net-1/metrics", nil, &metrics); status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	if metrics.D1 <= 0 || metrics.Version != 2 || metrics.Entry != "h0" {
		t.Fatalf("metrics response: %+v", metrics)
	}

	var assess AssessResponse
	status = do(t, http.MethodPost, ts.URL+"/v1/networks/net-1/assess", AssessRequest{
		Runs: 50, MaxTicks: 100,
	}, &assess)
	if status != http.StatusOK {
		t.Fatalf("assess: status %d", status)
	}
	if assess.Runs != 50 || assess.MTTC <= 0 || assess.Knowledge != "full" || assess.Mode != "tick" {
		t.Fatalf("assess response: %+v", assess)
	}

	var list ListResponse
	if status := do(t, http.MethodGet, ts.URL+"/v1/networks", nil, &list); status != http.StatusOK {
		t.Fatalf("list: status %d", status)
	}
	if len(list.Networks) != 1 || list.Networks[0].ID != "net-1" {
		t.Fatalf("list response: %+v", list)
	}

	if status := do(t, http.MethodDelete, ts.URL+"/v1/networks/net-1", nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete: status %d", status)
	}
	if status, code := errCode(t, http.MethodGet, ts.URL+"/v1/networks/net-1/assignment", nil); status != http.StatusNotFound || code != "not_found" {
		t.Fatalf("after delete: status %d code %s", status, code)
	}
}

// TestDeterministicResponses pins the determinism contract: the same request
// sequence against two fresh servers yields identical energies, hashes and
// MTTC statistics.
func TestDeterministicResponses(t *testing.T) {
	type outcome struct {
		createHash string
		energy     float64
		deltaHash  string
		mttc       float64
	}
	runOnce := func() outcome {
		_, ts := newTestServer(t, Config{})
		var created CreateResponse
		if status := do(t, http.MethodPost, ts.URL+"/v1/networks", CreateRequest{Spec: testSpec(8), Seed: 11}, &created); status != http.StatusCreated {
			t.Fatalf("create: status %d", status)
		}
		var dres DeltaResponse
		if status := do(t, http.MethodPost, ts.URL+"/v1/networks/net-1/deltas", netmodel.Delta{Ops: []netmodel.DeltaOp{
			{Op: netmodel.OpRemoveEdge, A: "h3", B: "h4"},
			{Op: netmodel.OpAddEdge, A: "h0", B: "h4"},
		}}, &dres); status != http.StatusOK {
			t.Fatalf("delta: status %d", status)
		}
		var assess AssessResponse
		if status := do(t, http.MethodPost, ts.URL+"/v1/networks/net-1/assess", AssessRequest{Runs: 100, MaxTicks: 100, Mode: "event"}, &assess); status != http.StatusOK {
			t.Fatalf("assess: status %d", status)
		}
		return outcome{created.AssignmentHash, created.Energy, dres.AssignmentHash, assess.MTTC}
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("responses not deterministic:\n  %+v\n  %+v", a, b)
	}
}

func TestCreateValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{SpecLimits: netmodel.SpecLimits{MaxHosts: 4}})

	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/networks", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}

	// Unknown top-level field.
	resp, err = http.Post(ts.URL+"/v1/networks", "application/json", strings.NewReader(`{"spec":{"hosts":[]},"nonsense":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}

	// Spec over the host limit.
	if status, code := errCode(t, http.MethodPost, ts.URL+"/v1/networks", CreateRequest{Spec: testSpec(5)}); status != http.StatusBadRequest || code != "bad_request" {
		t.Fatalf("over limit: status %d code %s", status, code)
	}

	// Unknown solver.
	if status, _ := errCode(t, http.MethodPost, ts.URL+"/v1/networks", CreateRequest{Spec: testSpec(3), Solver: "gradient-descent"}); status != http.StatusBadRequest {
		t.Fatalf("unknown solver: status %d", status)
	}

	// Invalid client-chosen ID.
	if status, _ := errCode(t, http.MethodPost, ts.URL+"/v1/networks", CreateRequest{ID: "no spaces allowed", Spec: testSpec(3)}); status != http.StatusBadRequest {
		t.Fatalf("invalid id: status %d", status)
	}

	// Duplicate ID conflicts.
	if status := do(t, http.MethodPost, ts.URL+"/v1/networks", CreateRequest{ID: "twin", Spec: testSpec(3)}, nil); status != http.StatusCreated {
		t.Fatalf("first create: status %d", status)
	}
	if status, code := errCode(t, http.MethodPost, ts.URL+"/v1/networks", CreateRequest{ID: "twin", Spec: testSpec(3)}); status != http.StatusConflict || code != "conflict" {
		t.Fatalf("duplicate id: status %d code %s", status, code)
	}
}

func TestSessionLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 1})
	if status := do(t, http.MethodPost, ts.URL+"/v1/networks", CreateRequest{Spec: testSpec(3)}, nil); status != http.StatusCreated {
		t.Fatalf("first create: status %d", status)
	}
	if status, code := errCode(t, http.MethodPost, ts.URL+"/v1/networks", CreateRequest{Spec: testSpec(3)}); status != http.StatusTooManyRequests || code != "too_many_sessions" {
		t.Fatalf("over session limit: status %d code %s", status, code)
	}
}

func TestUnknownSession(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		method, path string
		body         any
	}{
		{http.MethodGet, "/v1/networks/ghost", nil},
		{http.MethodGet, "/v1/networks/ghost/assignment", nil},
		{http.MethodGet, "/v1/networks/ghost/metrics", nil},
		{http.MethodPost, "/v1/networks/ghost/deltas", netmodel.Delta{}},
		{http.MethodPost, "/v1/networks/ghost/assess", AssessRequest{}},
		{http.MethodDelete, "/v1/networks/ghost", nil},
	} {
		status, code := errCode(t, tc.method, ts.URL+tc.path, tc.body)
		if status != http.StatusNotFound || code != "not_found" {
			t.Errorf("%s %s: status %d code %s, want 404 not_found", tc.method, tc.path, status, code)
		}
	}
}

// TestDeltaAtomicity checks that a rejected delta leaves the session
// untouched: the failing op comes after a valid one, and neither lands.
func TestDeltaAtomicity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status := do(t, http.MethodPost, ts.URL+"/v1/networks", CreateRequest{ID: "atom", Spec: testSpec(4)}, nil); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	status, _ := errCode(t, http.MethodPost, ts.URL+"/v1/networks/atom/deltas", netmodel.Delta{Ops: []netmodel.DeltaOp{
		{Op: netmodel.OpAddEdge, A: "h0", B: "h2"},      // valid
		{Op: netmodel.OpRemoveHost, ID: "no-such-host"}, // fails
	}})
	if status != http.StatusBadRequest {
		t.Fatalf("invalid delta: status %d", status)
	}
	var got AssignmentResponse
	if status := do(t, http.MethodGet, ts.URL+"/v1/networks/atom/assignment", nil, &got); status != http.StatusOK {
		t.Fatal("assignment read failed")
	}
	if got.Version != 1 {
		t.Fatalf("rejected delta bumped version to %d", got.Version)
	}
	// The valid prefix op must not have landed either: re-adding the same
	// edge in a valid delta must change the MRF (it would be idempotent —
	// and leave the dirty set empty — had the prefix been applied).
	var dres DeltaResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/networks/atom/deltas", netmodel.Delta{Ops: []netmodel.DeltaOp{
		{Op: netmodel.OpAddEdge, A: "h0", B: "h2"},
	}}, &dres); status != http.StatusOK {
		t.Fatalf("follow-up delta: status %d", status)
	}
	if dres.DirtyNodes == 0 {
		t.Fatalf("edge add was a no-op — rejected delta's prefix leaked: %+v", dres)
	}
}

// TestDeadlineMidSolve pins the 504 path: a 1000-host create with a 1ms
// request budget cannot finish its cold solve, must report timeout and must
// not leave a half-created session behind.
func TestDeadlineMidSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	gen, err := netgen.Random(netgen.RandomConfig{Hosts: 1000, Degree: 8, Services: 3, ProductsPerService: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	status, code := errCode(t, http.MethodPost, ts.URL+"/v1/networks?timeout_ms=1", CreateRequest{ID: "slow", Spec: netmodel.ToSpec(gen, nil)})
	if status != http.StatusGatewayTimeout || code != "timeout" {
		t.Fatalf("deadline mid-solve: status %d code %s, want 504 timeout", status, code)
	}
	if status, _ := errCode(t, http.MethodGet, ts.URL+"/v1/networks/slow", nil); status != http.StatusNotFound {
		t.Fatalf("timed-out session still live: status %d", status)
	}
}

// TestAutoIDSkipsSquattedName pins the allocID collision rule: a client
// squatting on "net-1" must not break auto-assigned creates.
func TestAutoIDSkipsSquattedName(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status := do(t, http.MethodPost, ts.URL+"/v1/networks", CreateRequest{ID: "net-1", Spec: testSpec(3)}, nil); status != http.StatusCreated {
		t.Fatal("squatting create failed")
	}
	var created CreateResponse
	if status := do(t, http.MethodPost, ts.URL+"/v1/networks", CreateRequest{Spec: testSpec(3)}, &created); status != http.StatusCreated {
		t.Fatalf("auto-ID create after squat: status %d", status)
	}
	if created.ID == "net-1" || created.ID == "" {
		t.Fatalf("auto-assigned ID %q collides with the squatted name", created.ID)
	}
}

// TestPendingDeltaHeals pins the 504-delta recovery path: a delta whose
// re-optimisation times out leaves the network mutated but the snapshot
// stale, and the next metrics request must heal the session (re-optimise
// lazily) instead of serving inconsistent state.  The timed-out delta is
// simulated white-box (ApplyDelta + pendingReopt under the writer slot —
// exactly the state handleDeltas leaves when Reoptimize fails) so the test
// does not depend on winning a race against a real deadline.
func TestPendingDeltaHeals(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	if status := do(t, http.MethodPost, ts.URL+"/v1/networks", CreateRequest{ID: "heal", Spec: testSpec(10), Seed: 2}, nil); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	sess, ok := srv.store.get("heal")
	if !ok {
		t.Fatal("session not in store")
	}
	sess.writer <- struct{}{}
	if err := sess.opt.ApplyDelta(netmodel.Delta{Ops: []netmodel.DeltaOp{
		{Op: netmodel.OpRemoveHost, ID: "h9"},
	}}); err != nil {
		sess.unlock()
		t.Fatal(err)
	}
	sess.pendingReopt = true
	sess.unlock()

	// The snapshot is stale (version 1, still contains h9) — metrics must
	// re-optimise lazily and answer for the healed state.
	var m MetricsResponse
	if status := do(t, http.MethodGet, ts.URL+"/v1/networks/heal/metrics", nil, &m); status != http.StatusOK {
		t.Fatalf("metrics after pending delta: status %d", status)
	}
	if m.Version != 2 || m.Hosts != 9 {
		t.Fatalf("heal did not publish the re-optimised state: %+v", m)
	}
	var got AssignmentResponse
	if status := do(t, http.MethodGet, ts.URL+"/v1/networks/heal/assignment", nil, &got); status != http.StatusOK {
		t.Fatal("assignment read failed")
	}
	if got.Version != 2 || got.Assignment.Len() != 9 {
		t.Fatalf("assignment not healed: version %d len %d", got.Version, got.Assignment.Len())
	}
	// A second metrics poll on the unchanged session is served from the
	// memoised result (same version/entry/target).
	var again MetricsResponse
	if status := do(t, http.MethodGet, ts.URL+"/v1/networks/heal/metrics", nil, &again); status != http.StatusOK || again != m {
		t.Fatalf("memoised metrics differ: %+v vs %+v", again, m)
	}
}

func TestDraining(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	if status := do(t, http.MethodPost, ts.URL+"/v1/networks", CreateRequest{ID: "stay", Spec: testSpec(3)}, nil); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	srv.Drain()
	if status, code := errCode(t, http.MethodPost, ts.URL+"/v1/networks", CreateRequest{Spec: testSpec(3)}); status != http.StatusServiceUnavailable || code != "draining" {
		t.Fatalf("create while draining: status %d code %s", status, code)
	}
	if status, _ := errCode(t, http.MethodPost, ts.URL+"/v1/networks/stay/deltas", netmodel.Delta{}); status != http.StatusServiceUnavailable {
		t.Fatalf("delta while draining: status %d", status)
	}
	// Reads keep working during the drain.
	if status := do(t, http.MethodGet, ts.URL+"/v1/networks/stay/assignment", nil, nil); status != http.StatusOK {
		t.Fatalf("read while draining: status %d", status)
	}
	var health HealthResponse
	if status := do(t, http.MethodGet, ts.URL+"/healthz", nil, &health); status != http.StatusOK || !health.Draining {
		t.Fatalf("healthz while draining: status %d %+v", status, health)
	}
}

// TestConcurrentSessionHammer drives one session with concurrent delta
// writers, assignment readers, metrics readers and an assessment, so the
// race detector can see writer/reader interleavings on the hot paths.
func TestConcurrentSessionHammer(t *testing.T) {
	_, ts := newTestServer(t, Config{SolveWorkers: 4, RequestTimeout: time.Minute})
	if status := do(t, http.MethodPost, ts.URL+"/v1/networks", CreateRequest{ID: "hammer", Spec: testSpec(12), Seed: 3}, nil); status != http.StatusCreated {
		t.Fatal("create failed")
	}

	const (
		writers         = 3
		deltasPerWriter = 4
		readers         = 4
		readsPerReader  = 40
	)
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers+1)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < deltasPerWriter; i++ {
				hid := netmodel.HostID(fmt.Sprintf("w%d-h%d", w, i))
				delta := netmodel.Delta{Ops: []netmodel.DeltaOp{
					{Op: netmodel.OpAddHost, Host: &netmodel.HostSpec{
						ID:       hid,
						Services: []netmodel.ServiceID{"os"},
						Choices:  map[netmodel.ServiceID][]netmodel.ProductID{"os": {"win7", "ubt1404", "osx109"}},
					}},
					{Op: netmodel.OpAddEdge, A: "h0", B: hid},
				}}
				data, err := json.Marshal(delta)
				if err != nil {
					errc <- err
					return
				}
				resp, err := http.Post(ts.URL+"/v1/networks/hammer/deltas", "application/json", bytes.NewReader(data))
				if err != nil {
					errc <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("writer %d delta %d: status %d: %s", w, i, resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	for rr := 0; rr < readers; rr++ {
		wg.Add(1)
		go func(rr int) {
			defer wg.Done()
			path := "/v1/networks/hammer/assignment"
			if rr%2 == 1 {
				path = "/v1/networks/hammer/metrics"
			}
			for i := 0; i < readsPerReader; i++ {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("reader %d: status %d", rr, resp.StatusCode)
					return
				}
			}
		}(rr)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		data, _ := json.Marshal(AssessRequest{Runs: 50, MaxTicks: 50, Mode: "event"})
		resp, err := http.Post(ts.URL+"/v1/networks/hammer/assess", "application/json", bytes.NewReader(data))
		if err != nil {
			errc <- err
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errc <- fmt.Errorf("assess: status %d", resp.StatusCode)
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// After the dust settles the session serves a consistent final state.
	var got AssignmentResponse
	if status := do(t, http.MethodGet, ts.URL+"/v1/networks/hammer/assignment", nil, &got); status != http.StatusOK {
		t.Fatal("final read failed")
	}
	wantHosts := 12 + writers*deltasPerWriter
	if got.Assignment.Len() != wantHosts {
		t.Fatalf("final assignment has %d entries, want %d", got.Assignment.Len(), wantHosts)
	}
	if got.Version != uint64(1+writers*deltasPerWriter) {
		t.Fatalf("final version %d, want %d", got.Version, 1+writers*deltasPerWriter)
	}
}

func TestAssignmentHashStable(t *testing.T) {
	a := netmodel.NewAssignment()
	a.Set("b", "os", "win7")
	a.Set("a", "os", "ubt1404")
	b := netmodel.NewAssignment()
	b.Set("a", "os", "ubt1404")
	b.Set("b", "os", "win7")
	if a.Hash() != b.Hash() {
		t.Fatal("hash depends on insertion order")
	}
	b.Set("b", "os", "osx109")
	if a.Hash() == b.Hash() {
		t.Fatal("hash ignores product change")
	}
	if (*netmodel.Assignment)(nil).Hash() != "" {
		t.Fatal("nil assignment should hash to empty string")
	}
}

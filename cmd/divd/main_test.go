package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"netdiversity/internal/netmodel"
)

// syncBuffer is a goroutine-safe output sink for the daemon under test.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startDaemon runs the daemon on a free port and returns its base URL plus a
// shutdown function that asserts a clean drain.
func startDaemon(t *testing.T, extraArgs ...string) (string, func()) {
	t.Helper()
	var out syncBuffer
	stop := make(chan struct{})
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() { done <- run(args, &out, stop) }()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(out.String(), "\n") {
			if addr, ok := strings.CutPrefix(line, "divd listening on "); ok {
				base = "http://" + strings.TrimSpace(addr)
			}
		}
		if base != "" {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited early: %v (output: %s)", err, out.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	if base == "" {
		t.Fatalf("daemon never reported its address (output: %s)", out.String())
	}
	return base, func() {
		close(stop)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon shutdown: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not drain within 10s")
		}
	}
}

// specFile writes a spec for a small chain network over paper products.
func specFile(t *testing.T, hosts int) string {
	t.Helper()
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
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDaemonRoundTrip boots the daemon, runs the create → delta → assess
// round trip over real HTTP and shuts it down cleanly.
func TestDaemonRoundTrip(t *testing.T) {
	base, shutdown := startDaemon(t)
	defer shutdown()

	spec, err := os.ReadFile(specFile(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"id":"rt","spec":%s,"seed":5}`, spec)
	resp, err := http.Post(base+"/v1/networks", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		Hosts          int    `json:"hosts"`
		AssignmentHash string `json:"assignment_hash"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || created.Hosts != 10 || created.AssignmentHash == "" {
		t.Fatalf("create: status %d response %+v", resp.StatusCode, created)
	}

	resp, err = http.Post(base+"/v1/networks/rt/deltas", "application/json",
		strings.NewReader(`{"ops":[{"op":"remove_edge","a":"h4","b":"h5"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var dres struct {
		Version uint64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dres); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || dres.Version != 2 {
		t.Fatalf("delta: status %d version %d", resp.StatusCode, dres.Version)
	}

	resp, err = http.Post(base+"/v1/networks/rt/assess", "application/json",
		strings.NewReader(`{"runs":50,"max_ticks":100}`))
	if err != nil {
		t.Fatal(err)
	}
	var assess struct {
		MTTC float64 `json:"mttc"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&assess); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || assess.MTTC <= 0 {
		t.Fatalf("assess: status %d mttc %f", resp.StatusCode, assess.MTTC)
	}
}

// TestDaemonMultilevelSession creates a session on the multilevel solver —
// which the daemon binary has to link for the name to resolve — and checks
// that a delta on it is re-solved incrementally.
func TestDaemonMultilevelSession(t *testing.T) {
	base, shutdown := startDaemon(t)
	defer shutdown()

	spec, err := os.ReadFile(specFile(t, 30))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"id":"ml","spec":%s,"solver":"multilevel","seed":5}`, spec)
	resp, err := http.Post(base+"/v1/networks", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create with solver multilevel: status %d body %s", resp.StatusCode, raw)
	}

	resp, err = http.Post(base+"/v1/networks/ml/deltas", "application/json",
		strings.NewReader(`{"ops":[{"op":"remove_edge","a":"h4","b":"h5"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var dres struct {
		Version     uint64 `json:"version"`
		Incremental bool   `json:"incremental"`
		DirtyNodes  int    `json:"dirty_nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dres); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || dres.Version != 2 || !dres.Incremental || dres.DirtyNodes == 0 {
		t.Fatalf("delta: status %d response %+v", resp.StatusCode, dres)
	}
}

// TestDaemonPreload boots the daemon with a -preload spec and checks the
// session is live before the first request.
func TestDaemonPreload(t *testing.T) {
	base, shutdown := startDaemon(t, "-preload", specFile(t, 5))
	defer shutdown()

	resp, err := http.Get(base + "/v1/networks/preload-0")
	if err != nil {
		t.Fatal(err)
	}
	var summary struct {
		Hosts   int    `json:"hosts"`
		Version uint64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&summary); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || summary.Hosts != 5 || summary.Version != 1 {
		t.Fatalf("preload session: status %d %+v", resp.StatusCode, summary)
	}
}

// TestDaemonPprof boots the daemon with -pprof and checks the profiler is
// served on its own listener — and is absent from the public API mux.
func TestDaemonPprof(t *testing.T) {
	var out syncBuffer
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0"}, &out, stop)
	}()
	var base, pprofBase string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && (base == "" || pprofBase == "") {
		for _, line := range strings.Split(out.String(), "\n") {
			if addr, ok := strings.CutPrefix(line, "divd listening on "); ok {
				base = "http://" + strings.TrimSpace(addr)
			}
			if addr, ok := strings.CutPrefix(line, "divd pprof on "); ok {
				pprofBase = "http://" + strings.TrimSpace(addr)
			}
		}
		if base == "" || pprofBase == "" {
			select {
			case err := <-done:
				t.Fatalf("daemon exited early: %v (output: %s)", err, out.String())
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	if base == "" || pprofBase == "" {
		t.Fatalf("daemon never reported both addresses (output: %s)", out.String())
	}
	defer func() {
		close(stop)
		if err := <-done; err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	}()

	resp, err := http.Get(pprofBase + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index on pprof listener: status %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable on the API mux: status %d", resp.StatusCode)
	}
}

// TestDaemonBadFlags pins flag-parse failures to an error return.
func TestDaemonBadFlags(t *testing.T) {
	var out syncBuffer
	if err := run([]string{"-addr"}, &out, nil); err == nil {
		t.Fatal("missing flag value should fail")
	}
	if err := run([]string{"-preload", "/does/not/exist.json"}, &out, nil); err == nil {
		t.Fatal("missing preload file should fail")
	}
}

// TestDaemonRestartRecovery boots the daemon with a data directory, builds
// session state over HTTP, restarts it on the same directory and checks the
// recovered session serves the identical version and assignment hash.
func TestDaemonRestartRecovery(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "wal")
	base, shutdown := startDaemon(t, "-data-dir", dataDir, "-fsync", "always", "-snapshot-every", "2")

	spec, err := os.ReadFile(specFile(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"id":"crashme","spec":%s,"seed":9}`, spec)
	resp, err := http.Post(base+"/v1/networks", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	for i := 0; i < 3; i++ {
		resp, err = http.Post(base+"/v1/networks/crashme/deltas", "application/json",
			strings.NewReader(fmt.Sprintf(
				`{"ops":[{"op":"add_host","host":{"id":"n%d","services":["os"],"choices":{"os":["win7","ubt1404","osx109"]}}},{"op":"add_edge","a":"h0","b":"n%d"}]}`, i, i)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: status %d", i, resp.StatusCode)
		}
	}
	readState := func(base string) (uint64, string) {
		resp, err := http.Get(base + "/v1/networks/crashme/assignment")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var got struct {
			Version uint64 `json:"version"`
			Hash    string `json:"assignment_hash"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("assignment: status %d", resp.StatusCode)
		}
		return got.Version, got.Hash
	}
	wantVersion, wantHash := readState(base)
	shutdown()

	base2, shutdown2 := startDaemon(t, "-data-dir", dataDir, "-fsync", "always")
	defer shutdown2()
	gotVersion, gotHash := readState(base2)
	if gotVersion != wantVersion || gotHash != wantHash {
		t.Fatalf("restart changed state: v%d/%s -> v%d/%s", wantVersion, wantHash, gotVersion, gotHash)
	}
	// The recovered session accepts further deltas and chains the version.
	resp, err = http.Post(base2+"/v1/networks/crashme/deltas", "application/json",
		strings.NewReader(`{"ops":[{"op":"remove_edge","a":"h2","b":"h3"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var dres struct {
		Version uint64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dres); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || dres.Version != wantVersion+1 {
		t.Fatalf("post-recovery delta: status %d version %d (want %d)", resp.StatusCode, dres.Version, wantVersion+1)
	}
}

// TestDaemonBadFsyncFlag pins -fsync validation to a startup error.
func TestDaemonBadFsyncFlag(t *testing.T) {
	var out syncBuffer
	if err := run([]string{"-data-dir", t.TempDir(), "-fsync", "sometimes"}, &out, nil); err == nil {
		t.Fatal("bad -fsync value should fail")
	}
}

// TestDaemonReplicationPair boots a primary/follower pair through the real
// flag wiring (-replicate-to / -follow), replicates a session, pins the
// follower's read/redirect split and healthz roles, then promotes the
// follower after the primary drains and writes against it — the daemon-level
// slice of what internal/replic's chaos tests cover in-process.
func TestDaemonReplicationPair(t *testing.T) {
	// The primary needs the follower's URL at boot; reserve its port first.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	followerAddr := ln.Addr().String()
	ln.Close()

	primaryBase, shutdownPrimary := startDaemon(t, "-replicate-to", "http://"+followerAddr)
	primaryDown := false
	defer func() {
		if !primaryDown {
			shutdownPrimary()
		}
	}()
	followerBase, shutdownFollower := startDaemon(t,
		"-addr", followerAddr, "-follow", primaryBase, "-anti-entropy-interval", "100ms")
	defer shutdownFollower()

	spec, err := os.ReadFile(specFile(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"id":"rep","spec":%s,"seed":3}`, spec)
	resp, err := http.Post(primaryBase+"/v1/networks", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	resp, err = http.Post(primaryBase+"/v1/networks/rep/deltas", "application/json",
		strings.NewReader(`{"ops":[{"op":"remove_edge","a":"h4","b":"h5"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status %d", resp.StatusCode)
	}

	// The session reaches the follower, which serves the primary's exact
	// state from its replica.
	readState := func(base string) (int, uint64, string) {
		resp, err := http.Get(base + "/v1/networks/rep/assignment")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var got struct {
			Version uint64 `json:"version"`
			Hash    string `json:"assignment_hash"`
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, got.Version, got.Hash
	}
	_, wantVersion, wantHash := readState(primaryBase)
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, v, h := readState(followerBase)
		if code == http.StatusOK && v == wantVersion && h == wantHash {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never replicated v%d/%s (last: %d v%d/%s)", wantVersion, wantHash, code, v, h)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Follower writes bounce to the primary with 307 not_primary.
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err = noRedirect.Post(followerBase+"/v1/networks/rep/deltas", "application/json",
		strings.NewReader(`{"ops":[{"op":"add_edge","a":"h0","b":"h7"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower write: status %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != primaryBase+"/v1/networks/rep/deltas" {
		t.Fatalf("follower write Location = %q", loc)
	}

	// Both healthz replication blocks report their role.
	role := func(base string) string {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h struct {
			Replication struct {
				Role string `json:"role"`
			} `json:"replication"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h.Replication.Role
	}
	if got := role(primaryBase); got != "primary" {
		t.Fatalf("primary healthz role = %q", got)
	}
	if got := role(followerBase); got != "follower" {
		t.Fatalf("follower healthz role = %q", got)
	}

	// Promote after the primary drains; the survivor serves the replicated
	// state and takes the next write at the chained version.
	shutdownPrimary()
	primaryDown = true
	resp, err = http.Post(followerBase+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var prom struct {
		Role     string `json:"role"`
		Sessions int    `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&prom); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || prom.Role != "primary" || prom.Sessions != 1 {
		t.Fatalf("promote: status %d %+v", resp.StatusCode, prom)
	}
	resp, err = http.Post(followerBase+"/v1/networks/rep/deltas", "application/json",
		strings.NewReader(`{"ops":[{"op":"add_edge","a":"h0","b":"h7"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var dres struct {
		Version uint64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dres); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || dres.Version != wantVersion+1 {
		t.Fatalf("post-promotion delta: status %d version %d (want %d)", resp.StatusCode, dres.Version, wantVersion+1)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"netdiversity/internal/netmodel"
)

// discardResponseWriter is a reusable ResponseWriter for handler-level
// benchmarks: it keeps one header map alive across requests so the handler's
// own allocations are the only thing measured.
type discardResponseWriter struct {
	h      http.Header
	status int
	bytes  int
}

func (w *discardResponseWriter) Header() http.Header { return w.h }
func (w *discardResponseWriter) WriteHeader(code int) {
	w.status = code
}
func (w *discardResponseWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	return len(p), nil
}

// benchServer preloads one solved session and returns the server.
func benchServer(tb testing.TB, hosts int) *Server {
	tb.Helper()
	srv := New(Config{})
	net, cs, err := netmodel.FromSpec(testSpec(hosts))
	if err != nil {
		tb.Fatalf("spec: %v", err)
	}
	if err := srv.Preload("bench", net, cs, 1); err != nil {
		tb.Fatalf("preload: %v", err)
	}
	return srv
}

// TestAssignmentReadZeroAllocs pins the steady-state read contract of the
// encoded cache: once the snapshot's body is cached, serving GET
// ../assignment performs no marshaling and no allocation at all.
func TestAssignmentReadZeroAllocs(t *testing.T) {
	srv := benchServer(t, 50)
	req := httptest.NewRequest(http.MethodGet, "/v1/networks/bench/assignment", nil)
	req.SetPathValue("id", "bench")
	w := &discardResponseWriter{h: make(http.Header)}
	srv.handleAssignment(w, req) // populate the cache
	if w.status != http.StatusOK {
		t.Fatalf("warm-up status %d", w.status)
	}
	allocs := testing.AllocsPerRun(200, func() {
		srv.handleAssignment(w, req)
	})
	if allocs != 0 {
		t.Fatalf("cached assignment read allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkAssignmentRead measures the cached steady-state read: every
// iteration is a snapshot load, a version check and one body copy.
func BenchmarkAssignmentRead(b *testing.B) {
	srv := benchServer(b, 200)
	req := httptest.NewRequest(http.MethodGet, "/v1/networks/bench/assignment", nil)
	req.SetPathValue("id", "bench")
	w := &discardResponseWriter{h: make(http.Header)}
	srv.handleAssignment(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.handleAssignment(w, req)
	}
}

// BenchmarkAssignmentReadUncached measures the same read with the cache
// defeated (the entry is cleared every iteration), i.e. the pre-cache cost a
// read paid on every request: a full JSON marshal of the assignment.
func BenchmarkAssignmentReadUncached(b *testing.B) {
	srv := benchServer(b, 200)
	sess, _ := srv.store.get("bench")
	req := httptest.NewRequest(http.MethodGet, "/v1/networks/bench/assignment", nil)
	req.SetPathValue("id", "bench")
	w := &discardResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.encAssignment.Store(nil)
		srv.handleAssignment(w, req)
	}
}

// BenchmarkDeltaRoundTrip measures the full delta request path (decode,
// enqueue, leader turn, warm re-solve, ack) with an add/remove host pair per
// iteration so the network size stays fixed.
func BenchmarkDeltaRoundTrip(b *testing.B) {
	srv := benchServer(b, 50)
	addBody, err := json.Marshal(addHostDelta("bx", "h0"))
	if err != nil {
		b.Fatalf("marshal add: %v", err)
	}
	removeBody, err := json.Marshal(netmodel.Delta{Ops: []netmodel.DeltaOp{{Op: netmodel.OpRemoveHost, ID: "bx"}}})
	if err != nil {
		b.Fatalf("marshal remove: %v", err)
	}
	post := func(body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/networks/bench/deltas", bytes.NewReader(body))
		req.SetPathValue("id", "bench")
		w := &discardResponseWriter{h: make(http.Header)}
		srv.handleDeltas(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("delta status %d", w.status)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(addBody)
		post(removeBody)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// latKind is the latency class of one completed op; assignment reads split
// by whether the response carried a version this client had not read yet.
type latKind int

const (
	latReadCached latKind = iota
	latReadFresh
	latDelta
	latMetrics
	latAssess
	latCreate
	numLat
)

var latNames = [numLat]string{"read_cached", "read_fresh", "delta", "metrics", "assess", "create"}

// client is the single closed-loop load client: one keep-alive connection
// per server, the next request sent only after the previous response was
// read to the end.
type client struct {
	http *http.Client
	st   *stack
	buf  bytes.Buffer
	// failures counts ops that did not get their expected status or broke a
	// version invariant; firstErr keeps the first one for the report and
	// transportErr the last round trip's transport error.
	failures     int
	firstErr     error
	transportErr error
	// lastCreate is the ack of the latest transient create (the traced run
	// compares it with its shadow replicas).
	lastCreate writeAck
}

func newClient(st *stack) *client {
	return &client{st: st, http: &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) fail(format string, args ...any) {
	c.failures++
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf(format, args...)
	}
}

// roundTrip sends one request and reads the whole response into c.buf,
// returning the status and the time from send to last body byte.  A
// transport error returns status 0 and is kept for expect to report.
func (c *client) roundTrip(method, url string, body []byte) (int, time.Duration) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		c.transportErr = err
		return 0, 0
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		c.transportErr = err
		return 0, 0
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	dur := time.Since(start)
	resp.Body.Close()
	if err != nil {
		c.transportErr = err
		return 0, dur
	}
	return resp.StatusCode, dur
}

// expect counts a failure unless the last round trip returned status want.
func (c *client) expect(what string, status, want int) bool {
	switch {
	case status == want:
		return true
	case status == 0:
		c.fail("%s: %v", what, c.transportErr)
	default:
		c.fail("%s: status %d, want %d: %s", what, status, want, bytes.TrimSpace(c.buf.Bytes()))
	}
	return false
}

// writeAck is the part of create and delta responses the client checks.
type writeAck struct {
	Version        uint64  `json:"version"`
	Hosts          int     `json:"hosts"`
	Energy         float64 `json:"energy"`
	AssignmentHash string  `json:"assignment_hash"`
}

// readHead is the head of an assignment response; the assignment itself is
// only decoded by the end-of-run gates.
type readHead struct {
	Version        uint64 `json:"version"`
	AssignmentHash string `json:"assignment_hash"`
}

var assignmentKey = []byte(`,"assignment":`)

// parseReadHead decodes the fields before "assignment" without touching the
// (large) assignment object.
func parseReadHead(body []byte) (readHead, error) {
	var h readHead
	i := bytes.Index(body, assignmentKey)
	if i < 0 {
		return h, fmt.Errorf("assignment response has no assignment field")
	}
	head := append(append(make([]byte, 0, i+1), body[:i]...), '}')
	err := json.Unmarshal(head, &h)
	return h, err
}

// readClass classifies an assignment read by its response version: cached
// when it repeats the version this client read last from the tenant (the
// encoded-cache hit path), fresh when the version is new to the client
// (marshal and cache install).
func readClass(lastRead, version uint64) latKind {
	if version == lastRead {
		return latReadCached
	}
	return latReadFresh
}

// createTenant creates a long-lived session and records its first version.
func (c *client) createTenant(t *tenant) {
	status, _ := c.roundTrip(http.MethodPost, c.st.base+"/v1/networks", t.createBody)
	c.checkWrite(t, status, http.StatusCreated, 1, len(t.hosts))
}

// checkWrite validates a create or delta ack against the client model and
// advances the tenant's acked state.
func (c *client) checkWrite(t *tenant, status, want int, version uint64, hosts int) {
	if !c.expect(t.id+" write", status, want) {
		return
	}
	var ack writeAck
	if err := json.Unmarshal(c.buf.Bytes(), &ack); err != nil {
		c.fail("%s: decode ack: %v", t.id, err)
		return
	}
	if ack.Version != version || ack.Hosts != hosts || ack.AssignmentHash == "" {
		c.fail("%s: ack version %d hosts %d, want %d and %d", t.id, ack.Version, ack.Hosts, version, hosts)
		return
	}
	t.version, t.hash, t.energy = ack.Version, ack.AssignmentHash, ack.Energy
}

// do executes one scheduled op and returns its latency class and duration.
// A failed op is counted and returns ok=false; its latency is not sampled.
func (c *client) do(o op, tenants []*tenant) (latKind, time.Duration, bool) {
	t := tenants[o.tenant]
	before := c.failures
	var kind latKind
	var dur time.Duration
	var status int
	switch o.kind {
	case opRead:
		status, dur = c.roundTrip(http.MethodGet, c.st.readBase+"/v1/networks/"+t.id+"/assignment", nil)
		kind = latReadCached
		if !c.expect(t.id+" read", status, http.StatusOK) {
			break
		}
		h, err := parseReadHead(c.buf.Bytes())
		switch {
		case err != nil:
			c.fail("%s read: %v", t.id, err)
		case h.Version < t.lastRead || h.Version > t.version:
			c.fail("%s read: version %d outside [%d, %d]", t.id, h.Version, t.lastRead, t.version)
		case h.Version == t.version && h.AssignmentHash != t.hash:
			c.fail("%s read: hash %s at version %d, acked %s", t.id, h.AssignmentHash, h.Version, t.hash)
		}
		kind = readClass(t.lastRead, h.Version)
		t.lastRead = h.Version
	case opMetrics:
		status, dur = c.roundTrip(http.MethodGet, c.st.readBase+"/v1/networks/"+t.id+"/metrics", nil)
		kind = latMetrics
		c.expect(t.id+" metrics", status, http.StatusOK)
	case opDelta:
		status, dur = c.roundTrip(http.MethodPost, c.st.base+"/v1/networks/"+t.id+"/deltas", o.body)
		kind = latDelta
		c.checkWrite(t, status, http.StatusOK, t.version+1, len(t.hosts))
	case opAssess:
		status, dur = c.roundTrip(http.MethodPost, c.st.base+"/v1/networks/"+t.id+"/assess", o.body)
		kind = latAssess
		c.expect(t.id+" assess", status, http.StatusOK)
	case opCreate:
		status, dur = c.roundTrip(http.MethodPost, c.st.base+"/v1/networks", o.body)
		kind = latCreate
		if c.expect("create "+o.transient, status, http.StatusCreated) {
			if err := json.Unmarshal(c.buf.Bytes(), &c.lastCreate); err != nil || c.lastCreate.Version != 1 || c.lastCreate.Hosts != t.created {
				c.fail("create %s: ack %+v (%v), want version 1 and %d hosts", o.transient, c.lastCreate, err, t.created)
			}
		}
		// The paired DELETE is bookkeeping outside the timed window.
		status, _ = c.roundTrip(http.MethodDelete, c.st.base+"/v1/networks/"+o.transient, nil)
		c.expect("delete "+o.transient, status, http.StatusNoContent)
	}
	return kind, dur, c.failures == before
}

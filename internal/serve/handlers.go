package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"netdiversity/internal/adversary"
	"netdiversity/internal/attacksim"
	"netdiversity/internal/core"
	"netdiversity/internal/metrics"
	"netdiversity/internal/netmodel"
	"netdiversity/internal/wal"
)

// routes mounts the v1 API on the server's mux.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/networks", s.handleCreate)
	s.mux.HandleFunc("GET /v1/networks", s.handleList)
	s.mux.HandleFunc("GET /v1/networks/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/networks/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/networks/{id}/deltas", s.handleDeltas)
	s.mux.HandleFunc("GET /v1/networks/{id}/assignment", s.handleAssignment)
	s.mux.HandleFunc("GET /v1/networks/{id}/metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/networks/{id}/assess", s.handleAssess)
	s.mux.HandleFunc("POST /v1/promote", s.handlePromote)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
}

// writeJSON writes a 2xx response body.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}

// writeError writes the error envelope.
func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, errorBody{Error: errorInfo{Code: code, Message: message}})
}

// errSessionClosed is observed by a writer that acquired a session's slot
// after the session was deleted (or its create rolled back).
var errSessionClosed = errors.New("session was deleted")

// retryAfterSeconds is the Retry-After value sent with every 429 and 503:
// both conditions clear on the order of seconds (a session freed, the drain
// finishing a solve), so well-behaved load clients back off briefly instead
// of hammering the admission path.
const retryAfterSeconds = "1"

// writeFailure maps an internal error onto the API's error codes, counting
// the backpressure classes (429, 504) and stamping Retry-After on 429 so
// closed-loop clients know the rejection is transient.
func (s *Server) writeFailure(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.stats.timeout504.Add(1)
		writeError(w, http.StatusGatewayTimeout, "timeout", "request deadline exceeded")
	case errors.Is(err, errSessionClosed):
		writeError(w, http.StatusNotFound, "not_found", err.Error())
	case errors.Is(err, ErrSessionExists):
		writeError(w, http.StatusConflict, "conflict", err.Error())
	case errors.Is(err, ErrTooManySessions):
		s.stats.rejected429.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeError(w, http.StatusTooManyRequests, "too_many_sessions", err.Error())
	case errors.Is(err, wal.ErrDegraded):
		s.stats.rejected503.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeError(w, http.StatusServiceUnavailable, "persistence_degraded", err.Error())
	default:
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
	}
}

// requestContext derives the handler context: the server's request timeout,
// optionally shortened (never extended) by a ?timeout_ms= query parameter.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	timeout := s.cfg.RequestTimeout
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		if ms, err := strconv.Atoi(v); err == nil && ms > 0 {
			if d := time.Duration(ms) * time.Millisecond; d < timeout {
				timeout = d
			}
		}
	}
	return context.WithTimeout(r.Context(), timeout)
}

// decodeBody decodes a JSON request body strictly: bounded size, unknown
// fields rejected, trailing data rejected.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	if dec.More() {
		return errors.New("decode request: trailing data after JSON body")
	}
	return nil
}

// validSessionID restricts client-chosen session IDs to a URL- and log-safe
// alphabet.
func validSessionID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	if id == "." || id == ".." {
		// Path-safe alphabet or not, these resolve to directories when the
		// ID names the session's folder under the persistence data dir.
		return false
	}
	for _, c := range id {
		ok := c == '-' || c == '_' || c == '.' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !ok {
			return false
		}
	}
	return true
}

// rejectDraining fails state-changing requests during shutdown, counting
// the rejection and stamping Retry-After so clients retry against the
// replacement instance instead of treating the drain as a hard failure.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if s.draining.Load() {
		s.stats.rejected503.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeError(w, http.StatusServiceUnavailable, "draining", "server is shutting down")
		return true
	}
	return false
}

// rejectWrite is the one write gate: a request that changes session state is
// turned away by a follower (not_primary), during shutdown (draining) and
// while persistence is degraded, in that order.
func (s *Server) rejectWrite(w http.ResponseWriter, r *http.Request) bool {
	return s.rejectNotPrimary(w, r) || s.rejectDraining(w) || s.rejectDegraded(w)
}

// summary renders a session's published state.
func sessionSummary(sess *session, snap *snapshot) NetworkSummary {
	return NetworkSummary{
		ID:             sess.id,
		Hosts:          snap.hosts,
		Links:          snap.links,
		Solver:         sess.solver,
		Seed:           sess.seed,
		Version:        snap.version,
		Energy:         snap.energy,
		AssignmentHash: snap.hash,
	}
}

// loadSession resolves the {id} path segment, writing 404 when unknown and
// 409 while the session's first solve has not published yet.
func (s *Server) loadSession(w http.ResponseWriter, r *http.Request, needSnap bool) (*session, *snapshot, bool) {
	id := r.PathValue("id")
	sess, ok := s.store.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("unknown network %q", id))
		return nil, nil, false
	}
	snap := sess.snap.Load()
	if needSnap && snap == nil {
		writeError(w, http.StatusConflict, "conflict", fmt.Sprintf("network %q is still initialising", id))
		return nil, nil, false
	}
	return sess, snap, true
}

// lockLive acquires the writer slot of the live session behind sess's ID.  A
// replica full sync closes the incarnation a request looked up and swaps its
// successor into the store (ReplicaCreate); a read that was queued on the old
// slot follows the swap instead of reporting a session that still exists as
// deleted.  A session closed with nothing in its place is errSessionClosed.
func (s *Server) lockLive(ctx context.Context, sess *session) (*session, error) {
	for {
		if err := sess.lock(ctx); err != nil {
			return nil, err
		}
		if !sess.closed {
			return sess, nil
		}
		sess.unlock()
		next, ok := s.store.get(sess.id)
		if !ok || next == sess {
			return nil, errSessionClosed
		}
		sess = next
	}
}

// handleCreate implements POST /v1/networks: build the network from the
// spec, run the initial solve through the global pool and publish the first
// snapshot.  The session is inserted before solving so the ID is reserved
// against concurrent creates; a failed solve removes it again.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.rejectWrite(w, r) {
		return
	}
	var req CreateRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeFailure(w, err)
		return
	}
	if req.ID != "" && !validSessionID(req.ID) {
		writeError(w, http.StatusBadRequest, "bad_request",
			"id must be 1-64 characters from [a-zA-Z0-9._-]")
		return
	}
	if err := req.Spec.CheckLimits(s.cfg.SpecLimits); err != nil {
		s.writeFailure(w, err)
		return
	}
	net, cs, err := netmodel.FromSpec(req.Spec)
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	meta := wal.SessionSnapshot{
		Solver:        req.Solver,
		Seed:          req.Seed,
		MaxIterations: min(req.MaxIterations, s.cfg.MaxIterations),
	}
	if meta.Solver == "" {
		meta.Solver = "trws"
	}
	if req.Similarity != nil {
		if meta.Similarity, err = json.Marshal(req.Similarity); err != nil {
			s.writeFailure(w, err)
			return
		}
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	start := time.Now()
	var (
		sess *session
		snap *snapshot
		res  core.Result
	)
	for {
		meta.ID = req.ID
		if meta.ID == "" {
			meta.ID = s.store.allocID()
		}
		sess, snap, res, err = s.createSession(ctx, &meta, net, cs)
		if err == nil {
			break
		}
		// An auto-assigned ID can collide with a client-chosen "net-<n>";
		// the counter is monotonic, so retrying allocates past the squatter.
		// Conflicts on an explicit ID are the client's to resolve (409).
		if req.ID == "" && errors.Is(err, ErrSessionExists) {
			continue
		}
		s.writeFailure(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, CreateResponse{
		NetworkSummary:       sessionSummary(sess, snap),
		Iterations:           res.Iterations,
		Converged:            res.Converged,
		WallMS:               float64(time.Since(start)) / float64(time.Millisecond),
		ConstraintViolations: res.ConstraintViolations,
	})
}

// handleList implements GET /v1/networks.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	resp := ListResponse{Networks: []NetworkSummary{}}
	for _, sess := range s.store.list() {
		if snap := sess.snap.Load(); snap != nil {
			resp.Networks = append(resp.Networks, sessionSummary(sess, snap))
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleGet implements GET /v1/networks/{id}, served from the version-keyed
// encoded cache (see cache.go) when the summary of the loaded snapshot is
// already marshaled.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, snap, ok := s.loadSession(w, r, true)
	if !ok {
		return
	}
	old := sess.encSummary.Load()
	if old != nil && old.version == snap.version {
		writeCached(w, old.body)
		return
	}
	body, err := encodeBody(sessionSummary(sess, snap))
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	s.storeEnc(sess, &sess.encSummary, old, &encEntry{version: snap.version, body: body})
	writeCached(w, body)
}

// handleDelete implements DELETE /v1/networks/{id}.  The removal runs under
// the writer slot, so an in-flight delta either completes (and is then
// deleted) or arrives after and observes the closed session — acknowledged
// writes never disappear retroactively.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.rejectWrite(w, r) {
		return
	}
	sess, _, ok := s.loadSession(w, r, false)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	if err := sess.lock(ctx); err != nil {
		s.writeFailure(w, err)
		return
	}
	closed := sess.closed
	s.retire(sess)
	sess.unlock()
	if closed {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("unknown network %q", sess.id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleDeltas implements POST /v1/networks/{id}/deltas through the
// coalescing queue (see coalesce.go): the request enqueues its delta, and
// whichever queued request wins the writer slot lands the whole queue as one
// validated batch — one apply, one warm re-solve, one snapshot whose version
// advances by the accepted count.  Per-delta all-or-nothing validation is
// preserved (a rejected delta never touches the session and the rest of the
// batch lands as if it never existed), and each request is acked with the
// post-batch version.
func (s *Server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	if s.rejectWrite(w, r) {
		return
	}
	sess, _, ok := s.loadSession(w, r, false)
	if !ok {
		return
	}
	// Deltas are decoded with the same strict decoder the JSON-lines stream
	// surface uses: unknown fields rejected, the op structurally validated,
	// and exactly one delta per request body.
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	dec := netmodel.NewDeltaDecoder(r.Body).Strict()
	delta, err := dec.Next()
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = errors.New("decode request: empty body")
		}
		s.writeFailure(w, err)
		return
	}
	if _, err := dec.Next(); !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "bad_request", "decode request: trailing data after JSON body")
		return
	}
	if err := delta.CheckLimits(s.cfg.DeltaLimits); err != nil {
		s.writeFailure(w, err)
		return
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()
	start := time.Now()
	req := newDeltaReq(delta)
	sess.deltas.enqueue(req)
	if err := sess.lock(ctx); err != nil {
		if req.state.CompareAndSwap(reqWaiting, reqWithdrawn) {
			// No leader claimed the request before the deadline: it was
			// never applied and never will be — the classic lock-timeout.
			s.writeFailure(w, err)
			return
		}
		// A running leader claimed the delta: the batch may still land
		// after this 504, exactly like the serial path's mid-solve timeout
		// (the session heals lazily if the leader's solve also dies).
		s.writeFailure(w, err)
		return
	}
	// Leader: land the queued batch (which includes this request unless an
	// earlier leader already acked it), then report our own outcome.
	s.runDeltaBatch(ctx, sess)
	out := <-req.done
	req.recycle() // ack consumed: no leader can reference the struct anymore
	if out.err != nil {
		s.writeFailure(w, out.err)
		return
	}
	out.resp.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, out.resp)
}

// healPending restores network/assignment consistency for a session whose
// last delta was applied but never re-optimised (its request's deadline
// expired mid-solve): the pending dirty set is warm-solved and a fresh
// snapshot published.  Must be called by the writer-slot holder; a no-op on
// healthy sessions.
func (s *Server) healPending(ctx context.Context, sess *session) error {
	if !sess.pendingReopt {
		return nil
	}
	done, err := s.admit(ctx, sess)
	if err != nil {
		return err
	}
	defer done()
	if _, err := sess.opt.Reoptimize(ctx); err != nil {
		return err
	}
	// The healed state folds in the timed-out batch (sess.pendingJournal), so
	// it is journaled like any other publish before it becomes visible.
	snap := sess.buildSnapshot(1)
	return s.publish(sess, sess.buildRecord(sess.snap.Load(), snap, nil), snap, nil)
}

// handleAssignment implements GET /v1/networks/{id}/assignment straight from
// the published snapshot — no locks, so reads never wait on a re-solve.  The
// snapshot is immutable, so its JSON body is marshaled once per version (one
// walk over the sealed assignment's host order, see Assignment.MarshalJSON)
// and every further read at that version is a copy of the cached bytes.
func (s *Server) handleAssignment(w http.ResponseWriter, r *http.Request) {
	sess, snap, ok := s.loadSession(w, r, true)
	if !ok {
		return
	}
	old := sess.encAssignment.Load()
	if old != nil && old.version == snap.version {
		writeCached(w, old.body)
		return
	}
	body, err := encodeBody(AssignmentResponse{
		ID:             sess.id,
		Version:        snap.version,
		Energy:         snap.energy,
		AssignmentHash: snap.hash,
		Assignment:     snap.assignment,
	})
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	s.storeEnc(sess, &sess.encAssignment, old, &encEntry{version: snap.version, body: body})
	writeCached(w, body)
}

// handleMetrics implements GET /v1/networks/{id}/metrics.  Metric evaluation
// reads the session network, so it runs under the writer slot (consistency
// with the snapshot is guaranteed because snapshots are published under the
// same slot).  A request whose (version, entry, target) body is already
// encoded is served from the cache without touching the slot at all — the
// bytes describe exactly the published version the request loaded, the same
// consistency the lock-free assignment read offers.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sess, snap0, ok := s.loadSession(w, r, true)
	if !ok {
		return
	}
	rawEntry := r.URL.Query().Get("entry")
	rawTarget := r.URL.Query().Get("target")
	encKey := rawEntry + "\x00" + rawTarget
	if e := sess.encMetrics.Load(); e != nil && e.version == snap0.version && e.key == encKey {
		writeCached(w, e.body)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	sess, err := s.lockLive(ctx, sess)
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	resp, err := func() (MetricsResponse, error) {
		defer sess.unlock()
		if err := s.healPending(ctx, sess); err != nil {
			return MetricsResponse{}, err
		}
		snap := sess.snap.Load()
		hosts := sess.net.Hosts()
		entry, target, err := resolveEndpoints(sess.net, hosts,
			netmodel.HostID(rawEntry), netmodel.HostID(rawTarget))
		if err != nil {
			return MetricsResponse{}, err
		}
		// The computation is pure in (snapshot version, entry, target):
		// polling clients are served from the memoised result without
		// recomputing graph-wide metrics on every request.
		if c := sess.metricsCache; c != nil && c.Version == snap.version && c.Entry == entry && c.Target == target {
			return *c, nil
		}
		// Graph-wide metric evaluation is heavy work: take a scheduler grant
		// like every solve and assessment batch.
		done, err := s.admit(ctx, sess)
		if err != nil {
			return MetricsResponse{}, err
		}
		defer done()
		pc, err := core.PairwiseSimilarityCost(sess.net, sess.sim, snap.assignment)
		if err != nil {
			return MetricsResponse{}, err
		}
		rich, err := metrics.Richness(sess.net, snap.assignment)
		if err != nil {
			return MetricsResponse{}, err
		}
		effort, err := metrics.Effort(sess.net, snap.assignment, sess.sim, metrics.EffortConfig{
			Entry:  entry,
			Target: target,
		})
		if err != nil {
			return MetricsResponse{}, err
		}
		resp := MetricsResponse{
			ID:           sess.id,
			Version:      snap.version,
			Hosts:        snap.hosts,
			Links:        snap.links,
			Energy:       snap.energy,
			PairwiseCost: pc,
			D1:           rich.Overall,
			D2:           effort.LeastEffort,
			D3:           effort.AverageEffort,
			Entry:        entry,
			Target:       target,
		}
		sess.metricsCache = &resp
		return resp, nil
	}()
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	// resp.Version may be newer than the snapshot loaded before the lock
	// (lazy heal publishes): the entry is keyed by the version it encodes.
	old := sess.encMetrics.Load()
	body, err := encodeBody(resp)
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	s.storeEnc(sess, &sess.encMetrics, old, &encEntry{version: resp.Version, key: encKey, body: body})
	writeCached(w, body)
}

// resolveEndpoints validates (or defaults) an entry/target host pair.
func resolveEndpoints(net *netmodel.Network, hosts []netmodel.HostID, entry, target netmodel.HostID) (netmodel.HostID, netmodel.HostID, error) {
	if len(hosts) < 2 {
		return "", "", errors.New("network has fewer than 2 hosts")
	}
	if entry == "" {
		entry = hosts[0]
	}
	if target == "" {
		target = hosts[len(hosts)-1]
	}
	for _, h := range [2]netmodel.HostID{entry, target} {
		if _, ok := net.Host(h); !ok {
			return "", "", fmt.Errorf("unknown host %q", h)
		}
	}
	return entry, target, nil
}

// parseKnowledge maps the API's knowledge names onto the adversary levels.
func parseKnowledge(name string) (adversary.Knowledge, error) {
	switch name {
	case "", "full":
		return adversary.KnowledgeFull, nil
	case "partial":
		return adversary.KnowledgePartial, nil
	case "none":
		return adversary.KnowledgeNone, nil
	default:
		return 0, fmt.Errorf("unknown knowledge %q (known: none, partial, full)", name)
	}
}

// parseMode maps the API's engine names onto the attacksim modes.
func parseMode(name string) (attacksim.Mode, error) {
	switch name {
	case "", "tick":
		return attacksim.ModeTick, nil
	case "event":
		return attacksim.ModeEvent, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (known: tick, event)", name)
	}
}

// handleAssess implements POST /v1/networks/{id}/assess: compile an attack
// campaign against the current assignment under the writer slot (compilation
// reads the network), then run the Monte-Carlo batch outside it — the
// compiled campaign is immutable, so concurrent deltas proceed while the
// batch executes on a pool token.
func (s *Server) handleAssess(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	sess, _, ok := s.loadSession(w, r, true)
	if !ok {
		return
	}
	var req AssessRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeFailure(w, err)
		return
	}
	knowledge, err := parseKnowledge(req.Knowledge)
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	mode, err := parseMode(req.Mode)
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	runs := req.Runs
	if runs <= 0 {
		runs = 500
	}
	if runs > s.cfg.MaxAssessRuns {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("runs %d exceeds the server cap %d", runs, s.cfg.MaxAssessRuns))
		return
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()
	sess, err = s.lockLive(ctx, sess)
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	seed := sess.seed
	if req.Seed != nil {
		seed = *req.Seed
	}
	campaign, version, err := func() (*attacksim.Campaign, uint64, error) {
		defer sess.unlock()
		if err := s.healPending(ctx, sess); err != nil {
			return nil, 0, err
		}
		snap := sess.snap.Load()
		entry, target, err := resolveEndpoints(sess.net, sess.net.Hosts(), req.Entry, req.Target)
		if err != nil {
			return nil, 0, err
		}
		// A campaign is a pure function of (snapshot version, campaign
		// shape): re-assessing the same state skips adversary evaluation and
		// compilation entirely.  Campaigns are immutable and safe to run
		// concurrently (per-worker scratch, per-run derived RNG), so handing
		// the cached one to a second request is exactly as deterministic as
		// recompiling it.
		key := assessKey{
			entry:     entry,
			target:    target,
			knowledge: knowledge,
			pAvg:      req.PAvg,
			runs:      runs,
			maxTicks:  req.MaxTicks,
			seed:      seed,
			exploit:   exploitKey(req.ExploitServices),
		}
		if c := sess.assessCache; c != nil && c.version == snap.version && c.key == key {
			return c.campaign, snap.version, nil
		}
		ev, err := adversary.New(sess.net, snap.assignment, sess.sim)
		if err != nil {
			return nil, 0, err
		}
		campaign, err := ev.Compile(adversary.Config{
			Entry:           entry,
			Target:          target,
			Knowledge:       knowledge,
			PAvg:            req.PAvg,
			ExploitServices: req.ExploitServices,
			Runs:            runs,
			MaxTicks:        req.MaxTicks,
			Seed:            seed,
		})
		if err != nil {
			return nil, 0, err
		}
		sess.assessCache = &assessCacheEntry{version: snap.version, key: key, campaign: campaign}
		return campaign, snap.version, nil
	}()
	if err != nil {
		s.writeFailure(w, err)
		return
	}

	start := time.Now()
	res, err := func() (attacksim.Result, error) {
		done, err := s.admit(ctx, sess)
		if err != nil {
			return attacksim.Result{}, err
		}
		defer done()
		return campaign.RunBatch(ctx, attacksim.BatchOptions{Mode: mode})
	}()
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	modeName := "tick"
	if mode == attacksim.ModeEvent {
		modeName = "event"
	}
	writeJSON(w, http.StatusOK, AssessResponse{
		ID:           sess.id,
		Version:      version,
		Knowledge:    knowledge.String(),
		Mode:         modeName,
		Runs:         res.Runs,
		MTTC:         res.MTTC,
		MedianTTC:    res.MedianTTC,
		P90TTC:       res.P90TTC,
		StdTTC:       res.StdTTC,
		SuccessRate:  res.SuccessRate,
		MeanInfected: res.MeanInfected,
		WallMS:       float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// handleHealth implements GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{
		Status:   "ok",
		Sessions: s.store.len(),
		Draining: s.draining.Load(),
		Counters: s.Stats(),
	}
	if s.cfg.Persist != nil {
		st := s.cfg.Persist.Stats()
		resp.Persistence = &st
		if st.Degraded {
			resp.Status = "degraded"
		}
	}
	if s.cfg.Replication != nil || s.cfg.Replicator != nil || s.role.Load() != rolePrimary {
		resp.Replication = s.replicationHealth()
	}
	writeJSON(w, http.StatusOK, resp)
}

package replic

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netdiversity/internal/netmodel"
	"netdiversity/internal/wal"
)

// defaultChunkStart is the adaptive symbol loop's first request size.  A
// zero-diff session that was not already skipped by the listing fast path
// decodes from this single small chunk, so in-sync rounds cost O(1) symbols
// per session regardless of log length.
const defaultChunkStart = 8

// ReplicaStore is the surface the follower needs from the serving plane:
// create/replace a session from a full snapshot, apply one committed record
// through deterministic patch replay, delete, and read the applied tip.
// *serve.Server implements it.
type ReplicaStore interface {
	ReplicaCreate(snap *wal.SessionSnapshot) error
	ReplicaApply(id string, rec *wal.Record) error
	ReplicaDelete(id string) error
	ReplicaVersion(id string) (version uint64, hash string, ok bool)
	SessionIDs() []string
}

// FollowerOptions tunes a Follower.  The zero value uses the defaults.
type FollowerOptions struct {
	// Interval between anti-entropy rounds.  Default 2s.
	Interval time.Duration
	// Advertise is this node's base URL as the primary should reach it; when
	// non-empty the follower re-attaches every round, so a restarted primary
	// re-learns its followers without operator action.
	Advertise string
	// Client issues pull requests.  Default: an http.Client with a 10s
	// timeout.  Tests inject a fault transport here.
	Client *http.Client
	// MaxSymbols caps the adaptive loop's chunk doubling; a difference that
	// does not decode within it falls back to a full snapshot.  Default 2048.
	MaxSymbols int
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.Interval <= 0 {
		o.Interval = 2 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if o.MaxSymbols <= 0 {
		o.MaxSymbols = 2048
	}
	return o
}

// FollowerStats is the pull-side replication state reported in healthz.
type FollowerStats struct {
	Primary          string
	Rounds           int64
	LastRoundUnixMS  int64
	InSync           bool
	RecordsApplied   int64
	RecordsFetched   int64
	SnapshotsFetched int64
	BadRecords       int64
	PendingRecords   int
	Errors           int64
	LastError        string
}

// Follower drives a replica: it ingests the primary's push stream, buffers
// out-of-order records per session, applies contiguous runs through the
// store's patch-replay path, and runs the anti-entropy loop that repairs
// whatever push missed.
type Follower struct {
	store   ReplicaStore
	primary string
	opts    FollowerOptions

	mu sync.Mutex
	// pending buffers records that arrived above the contiguously applied
	// version, keyed session → version.  Drained (and chain-verified) by
	// offer as the gap below them fills.
	pending map[string]map[uint64]*wal.Record
	// resync marks sessions whose incremental state is untrustworthy (apply
	// failure, digest mismatch): the next round full-syncs them.
	resync map[string]bool

	stopped atomic.Bool
	stopc   chan struct{}
	wg      sync.WaitGroup

	rounds           atomic.Int64
	lastRound        atomic.Int64
	inSync           atomic.Bool
	recordsApplied   atomic.Int64
	recordsFetched   atomic.Int64
	snapshotsFetched atomic.Int64
	badRecords       atomic.Int64
	errors           atomic.Int64
	lastErr          atomic.Pointer[string]
}

// NewFollower creates a Follower replicating from the primary at the given
// base URL into store.  Call Run to start the anti-entropy loop.
func NewFollower(store ReplicaStore, primaryURL string, opts FollowerOptions) *Follower {
	return &Follower{
		store:   store,
		primary: primaryURL,
		opts:    opts.withDefaults(),
		pending: make(map[string]map[uint64]*wal.Record),
		resync:  make(map[string]bool),
		stopc:   make(chan struct{}),
	}
}

// Run starts the anti-entropy loop in a goroutine; Stop ends it.
func (f *Follower) Run() {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		t := time.NewTicker(f.opts.Interval)
		defer t.Stop()
		for {
			select {
			case <-f.stopc:
				return
			case <-t.C:
				f.syncRound()
			}
		}
	}()
}

// Stop ends replication permanently: the loop exits and the ingest handler
// starts rejecting pushes.  Called by promotion — a primary must not keep
// applying another node's records.
func (f *Follower) Stop() {
	if f.stopped.CompareAndSwap(false, true) {
		close(f.stopc)
	}
	f.wg.Wait()
}

// syncRound wraps SyncOnce for the loop, folding errors into stats.
func (f *Follower) syncRound() {
	ctx, cancel := context.WithTimeout(context.Background(), f.opts.Interval*5+10*time.Second)
	defer cancel()
	if err := f.SyncOnce(ctx); err != nil {
		f.errors.Add(1)
		msg := err.Error()
		f.lastErr.Store(&msg)
	}
}

// SyncOnce runs one full anti-entropy round: attach, list the primary's
// sessions, drop local sessions the primary no longer has, and reconcile
// each listed session.  Per-session failures are accumulated, not fatal —
// one bad session must not starve the others.
func (f *Follower) SyncOnce(ctx context.Context) error {
	f.rounds.Add(1)
	defer f.lastRound.Store(time.Now().UnixMilli())
	if f.opts.Advertise != "" {
		// Best-effort: a primary mid-restart will pick us up next round.
		_ = postJSON(f.opts.Client, f.primary+PathAttach, attachRequest{URL: f.opts.Advertise}, nil)
	}
	var listing sessionsResponse
	if err := f.getJSON(ctx, f.primary+PathSessions, &listing); err != nil {
		f.inSync.Store(false)
		return fmt.Errorf("list sessions: %w", err)
	}
	primaryHas := make(map[string]SessionState, len(listing.Sessions))
	for _, st := range listing.Sessions {
		primaryHas[st.ID] = st
	}
	for _, id := range f.store.SessionIDs() {
		if _, ok := primaryHas[id]; !ok {
			if err := f.store.ReplicaDelete(id); err == nil {
				f.dropPending(id)
			}
		}
	}
	var firstErr error
	clean := true
	for _, st := range listing.Sessions {
		if err := f.reconcileSession(ctx, st); err != nil {
			clean = false
			if firstErr == nil {
				firstErr = fmt.Errorf("session %s: %w", st.ID, err)
			}
		}
		if ctx.Err() != nil {
			clean = false
			break
		}
	}
	if clean {
		// Re-check against the listing we acted on: in sync means every
		// listed session reached its listed tip (the primary may already be
		// ahead again; that is next round's business).
		for _, st := range listing.Sessions {
			v, h, ok := f.store.ReplicaVersion(st.ID)
			if !ok || v < st.Version || (v == st.Version && h != st.Hash) {
				clean = false
				break
			}
		}
	}
	f.inSync.Store(clean)
	return firstErr
}

// reconcileSession converges one session to the listed primary state.
func (f *Follower) reconcileSession(ctx context.Context, st SessionState) error {
	v, h, known := f.store.ReplicaVersion(st.ID)
	f.mu.Lock()
	needFull := !known || f.resync[st.ID]
	pend := len(f.pending[st.ID])
	f.mu.Unlock()
	if needFull {
		return f.fullSync(ctx, st.ID)
	}
	if v == st.Version && h == st.Hash && pend == 0 {
		return nil // zero-diff fast path: the listing row was the whole round
	}
	if v > st.Version {
		// Local ahead of the listing — a push beat the listing snapshot.
		return nil
	}
	if v == st.Version && h != st.Hash {
		// Same version, different hash: divergence, not lag.
		f.markResync(st.ID)
		return f.fullSync(ctx, st.ID)
	}
	return f.reconcileRecords(ctx, st, v)
}

// reconcileRecords runs the adaptive symbol loop above floor, fetches the
// decoded missing records and applies them.
func (f *Follower) reconcileRecords(ctx context.Context, st SessionState, floor uint64) error {
	local := f.pendingVersions(st.ID, floor)
	var resp symbolsResponse
	var remoteOnly, localOnly []uint64
	decoded := false
	for n := defaultChunkStart; n <= f.opts.MaxSymbols; n *= 2 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := postJSON(f.opts.Client, f.primary+PathSymbols, symbolsRequest{ID: st.ID, Floor: floor, Count: n}, &resp); err != nil {
			return fmt.Errorf("fetch symbols: %w", err)
		}
		if resp.SnapshotNeeded {
			return f.fullSync(ctx, st.ID)
		}
		if len(resp.Symbols) > n {
			return fmt.Errorf("primary returned %d symbols for count %d", len(resp.Symbols), n)
		}
		var ok bool
		if remoteOnly, localOnly, ok = Reconcile(resp.Symbols, local); ok {
			decoded = true
			break
		}
	}
	if !decoded {
		// Difference too large for the symbol budget: snapshot is cheaper.
		return f.fullSync(ctx, st.ID)
	}
	// End-to-end check: local + decoded difference must reproduce the
	// primary's advertised digest, or the decode silently went wrong.
	d := netmodel.DigestOf(local)
	for _, v := range remoteOnly {
		d.Add(v)
	}
	for _, v := range localOnly {
		d.Remove(v)
	}
	if uint64(d) != resp.Digest {
		f.markResync(st.ID)
		return f.fullSync(ctx, st.ID)
	}
	// localOnly are buffered records the primary does not have (e.g. from a
	// deposed primary's push): drop them, they will never become contiguous.
	if len(localOnly) > 0 {
		f.mu.Lock()
		for _, v := range localOnly {
			delete(f.pending[st.ID], v)
		}
		f.mu.Unlock()
	}
	if len(remoteOnly) == 0 {
		return f.drain(st.ID)
	}
	sort.Slice(remoteOnly, func(i, j int) bool { return remoteOnly[i] < remoteOnly[j] })
	if err := f.fetchRecords(ctx, st.ID, remoteOnly); err != nil {
		return err
	}
	return f.drain(st.ID)
}

// fetchRecords pulls the given record versions and offers each for apply.
func (f *Follower) fetchRecords(ctx context.Context, id string, versions []uint64) error {
	const batch = 4096
	for len(versions) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := len(versions)
		if n > batch {
			n = batch
		}
		body, err := json.Marshal(recordsRequest{ID: id, Versions: versions[:n]})
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.primary+PathRecords, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := f.opts.Client.Do(req)
		if err != nil {
			return fmt.Errorf("fetch records: %w", err)
		}
		if resp.StatusCode/100 != 2 {
			err := wireStatusError(resp)
			resp.Body.Close()
			return err
		}
		err = wal.ScanFrames(resp.Body, maxStreamFrames, func(payload []byte) error {
			rec, err := wal.DecodeRecord(payload)
			if err != nil {
				return err // corrupt frame payload: abort this fetch
			}
			f.recordsFetched.Add(1)
			f.offer(id, rec)
			return nil
		})
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("record stream: %w", err)
		}
		versions = versions[n:]
	}
	return nil
}

// fullSync replaces the session's replica with a full primary snapshot.
func (f *Follower) fullSync(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.primary+PathSnapshot+"?id="+id, nil)
	if err != nil {
		return err
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return fmt.Errorf("fetch snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		// Deleted between listing and fetch; next round's listing settles it.
		return nil
	}
	if resp.StatusCode/100 != 2 {
		return wireStatusError(resp)
	}
	var snap *wal.SessionSnapshot
	err = wal.ScanFrames(resp.Body, maxStreamFrames, func(payload []byte) error {
		if snap != nil {
			return fmt.Errorf("snapshot stream carried extra frames")
		}
		snap = new(wal.SessionSnapshot)
		return json.Unmarshal(payload, snap)
	})
	if err != nil {
		return fmt.Errorf("snapshot stream: %w", err)
	}
	if snap == nil {
		return fmt.Errorf("empty snapshot stream")
	}
	if snap.ID != id {
		return fmt.Errorf("snapshot for %q answered request for %q", snap.ID, id)
	}
	if err := f.store.ReplicaCreate(snap); err != nil {
		return fmt.Errorf("install snapshot: %w", err)
	}
	f.snapshotsFetched.Add(1)
	f.mu.Lock()
	delete(f.pending, id)
	delete(f.resync, id)
	f.mu.Unlock()
	return nil
}

// offer buffers one record and drains the contiguous run it may complete.
// Safe from both the ingest handler and the anti-entropy loop.
func (f *Follower) offer(id string, rec *wal.Record) {
	v, _, ok := f.store.ReplicaVersion(id)
	if ok && rec.Version <= v {
		return // duplicate push/fetch
	}
	f.mu.Lock()
	m := f.pending[id]
	if m == nil {
		m = make(map[uint64]*wal.Record)
		f.pending[id] = m
	}
	m[rec.Version] = rec
	f.mu.Unlock()
	_ = f.drain(id)
}

// drain applies buffered records that extend the contiguously applied chain.
// An apply failure that left the replica where the record chains from marks
// the session for resync — the replay path rejected the record itself, so
// incremental state is no longer trustworthy.  A replica that moved on
// meanwhile only lost a race (push and pull offered the same record): the
// next round's listing settles what, if anything, is still missing.
func (f *Follower) drain(id string) error {
	for {
		v, _, ok := f.store.ReplicaVersion(id)
		if !ok {
			f.dropPending(id)
			return nil
		}
		f.mu.Lock()
		var next *wal.Record
		for _, rec := range f.pending[id] {
			if rec.PrevVersion == v {
				next = rec
				break
			}
		}
		if next != nil {
			delete(f.pending[id], next.Version)
		}
		f.mu.Unlock()
		if next == nil {
			return nil
		}
		if err := f.store.ReplicaApply(id, next); err != nil {
			f.badRecords.Add(1)
			f.dropPending(id)
			if cur, _, ok := f.store.ReplicaVersion(id); ok && cur == v {
				f.markResync(id)
			}
			return fmt.Errorf("apply record %d: %w", next.Version, err)
		}
		f.recordsApplied.Add(1)
	}
}

// IngestHandler returns the push sink mounted at PathIngest: a framed stream
// of push envelopes.  Envelope-level failures are counted and skipped (push
// is best-effort; pull repairs), but a torn or corrupt frame fails the
// request so the primary sees the transport problem.
func (f *Follower) IngestHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.stopped.Load() {
			writeWireError(w, http.StatusConflict, "replication stopped: node promoted")
			return
		}
		err := wal.ScanFrames(r.Body, maxStreamFrames, func(payload []byte) error {
			var env pushEnvelope
			if err := json.Unmarshal(payload, &env); err != nil {
				return fmt.Errorf("decode push envelope: %w", err)
			}
			f.applyEnvelope(&env)
			return nil
		})
		if err != nil {
			writeWireError(w, http.StatusBadRequest, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
}

// applyEnvelope handles one push event; failures count, never propagate.
func (f *Follower) applyEnvelope(env *pushEnvelope) {
	switch env.Kind {
	case kindRecord:
		rec, err := wal.DecodeRecord(env.Record)
		if err != nil {
			f.badRecords.Add(1)
			return
		}
		f.offer(env.ID, rec)
	case kindSnapshot:
		var snap wal.SessionSnapshot
		if err := json.Unmarshal(env.Snapshot, &snap); err != nil || snap.ID != env.ID {
			f.badRecords.Add(1)
			return
		}
		if v, _, ok := f.store.ReplicaVersion(env.ID); ok && snap.Version <= v {
			return // stale snapshot (attach race); keep the newer replica
		}
		if err := f.store.ReplicaCreate(&snap); err != nil {
			f.badRecords.Add(1)
			return
		}
		f.snapshotsFetched.Add(1)
		f.mu.Lock()
		delete(f.pending, env.ID)
		delete(f.resync, env.ID)
		f.mu.Unlock()
	case kindDelete:
		if err := f.store.ReplicaDelete(env.ID); err == nil {
			f.dropPending(env.ID)
		}
	default:
		f.badRecords.Add(1)
	}
}

// Stats snapshots the follower's replication state for healthz.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	pend := 0
	for _, m := range f.pending {
		pend += len(m)
	}
	f.mu.Unlock()
	st := FollowerStats{
		Primary:          f.primary,
		Rounds:           f.rounds.Load(),
		LastRoundUnixMS:  f.lastRound.Load(),
		InSync:           f.inSync.Load(),
		RecordsApplied:   f.recordsApplied.Load(),
		RecordsFetched:   f.recordsFetched.Load(),
		SnapshotsFetched: f.snapshotsFetched.Load(),
		BadRecords:       f.badRecords.Load(),
		PendingRecords:   pend,
		Errors:           f.errors.Load(),
	}
	if e := f.lastErr.Load(); e != nil {
		st.LastError = *e
	}
	return st
}

// pendingVersions lists buffered record versions above floor for a session —
// the local side of the reconciliation set.
func (f *Follower) pendingVersions(id string, floor uint64) []uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]uint64, 0, len(f.pending[id]))
	for v := range f.pending[id] {
		if v > floor {
			out = append(out, v)
		}
	}
	return out
}

func (f *Follower) markResync(id string) {
	f.mu.Lock()
	f.resync[id] = true
	f.mu.Unlock()
}

func (f *Follower) dropPending(id string) {
	f.mu.Lock()
	delete(f.pending, id)
	delete(f.resync, id)
	f.mu.Unlock()
}

// getJSON issues a context-bound GET and decodes the JSON response.
func (f *Follower) getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return wireStatusError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

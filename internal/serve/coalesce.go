package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"netdiversity/internal/netmodel"
)

// Delta coalescing: when deltas queue behind a session's writer slot, the
// slot holder drains the whole queue and lands it through one batch apply +
// one warm re-optimisation instead of N, turning write-side queueing under
// concurrent load into linear amortised cost.
//
// The mechanism is leader/follower.  Every delta request enqueues itself on
// the session's pending queue and then competes for the writer slot.  The
// winner (leader) drains the queue — its own request plus everything that
// piled up — validates each delta against the batch's running overlay
// (netmodel.BatchChecker, preserving the per-delta all-or-nothing
// contract), applies the accepted deltas through core's batch entry point,
// re-optimises once, publishes one snapshot whose version advances by the
// accepted count (so coalesced and serial runs agree on the final version),
// and acks every drained request before releasing the slot.  Losers either
// find their request already acked when they get the slot, or time out:
// a request withdrawn before any leader claimed it was never applied (the
// classic lock-timeout 504), while a request already claimed by a running
// leader may still land after its client got 504 — exactly the mid-solve
// timeout semantics of the serial path, healed lazily via pendingReopt.

// deltaReq states: a request starts waiting, is claimed by the leader that
// drains it (which then guarantees exactly one ack), or is withdrawn by its
// own handler on a pre-claim timeout (never applied, skipped by leaders).
const (
	reqWaiting int32 = iota
	reqClaimed
	reqWithdrawn
)

// deltaReq is one queued delta request.
type deltaReq struct {
	delta netmodel.Delta
	state atomic.Int32
	// done carries the single outcome; buffered so the leader's ack never
	// blocks on a handler that already gave up.
	done chan deltaOutcome
}

// deltaOutcome is the ack a leader delivers for a claimed request.
type deltaOutcome struct {
	resp DeltaResponse
	err  error
}

// deltaReqPool recycles request structs (and their ack channels) across delta
// requests.  Only the handler that consumed a request's ack may recycle it:
// at that point the ack channel is empty again and no leader will ever touch
// the struct — a request abandoned on timeout is simply left to the GC.
var deltaReqPool = sync.Pool{
	New: func() any { return &deltaReq{done: make(chan deltaOutcome, 1)} },
}

func newDeltaReq(d netmodel.Delta) *deltaReq {
	rq := deltaReqPool.Get().(*deltaReq)
	rq.delta = d
	rq.state.Store(reqWaiting)
	return rq
}

// recycle returns a request to the pool.  Call only after reading the ack.
func (rq *deltaReq) recycle() {
	rq.delta = netmodel.Delta{}
	deltaReqPool.Put(rq)
}

func (rq *deltaReq) ack(resp DeltaResponse, err error) {
	rq.done <- deltaOutcome{resp: resp, err: err}
}

// deltaQueue is a session's pending coalesced-delta queue.
type deltaQueue struct {
	mu      sync.Mutex
	pending []*deltaReq
}

// enqueue appends a request to the queue.
func (q *deltaQueue) enqueue(rq *deltaReq) {
	q.mu.Lock()
	q.pending = append(q.pending, rq)
	q.mu.Unlock()
}

// drain takes the whole queue and claims every request still waiting;
// withdrawn requests are dropped.  Called only by the writer-slot holder,
// which thereby owns the acks of everything claimed.
func (q *deltaQueue) drain() []*deltaReq {
	q.mu.Lock()
	taken := q.pending
	q.pending = nil
	q.mu.Unlock()
	batch := taken[:0]
	for _, rq := range taken {
		if rq.state.CompareAndSwap(reqWaiting, reqClaimed) {
			batch = append(batch, rq)
		}
	}
	return batch
}

// runDeltaBatch is the leader's turn: drain the session's queue, validate
// each delta against the batch overlay, land the accepted set through one
// apply + one warm re-solve, and ack every claimed request.  The caller
// must hold the writer slot; runDeltaBatch releases it.
func (s *Server) runDeltaBatch(ctx context.Context, sess *session) {
	defer sess.unlock()
	batch := sess.deltas.drain()
	if len(batch) == 0 {
		// Every queued request (including the caller's own) was claimed and
		// acked by an earlier leader.
		return
	}
	ackAll := func(reqs []*deltaReq, err error) {
		for _, rq := range reqs {
			rq.ack(DeltaResponse{}, err)
		}
	}
	if sess.closed {
		ackAll(batch, errSessionClosed)
		return
	}

	// Per-delta all-or-nothing validation against the running overlay: a
	// delta is checked as if the earlier accepted deltas of the batch had
	// landed, and a rejected delta leaves the overlay untouched, so the
	// rest of the batch validates exactly as if it never existed.
	// Constraint references are only enforced by the live apply, so they
	// are pre-checked here too, like the serial path always did.
	checker := netmodel.NewBatchChecker(sess.net)
	cs := sess.opt.Constraints()
	accepted := make([]*deltaReq, 0, len(batch))
	for _, rq := range batch {
		if err := checkConstraintRefs(cs, rq.delta); err != nil {
			rq.ack(DeltaResponse{}, err)
			continue
		}
		if err := checker.Check(rq.delta); err != nil {
			rq.ack(DeltaResponse{}, err)
			continue
		}
		accepted = append(accepted, rq)
	}
	if len(accepted) == 0 {
		return
	}

	done, err := s.admit(ctx, sess)
	if err != nil {
		ackAll(accepted, err)
		return
	}
	defer done()
	// The apply slice is leader-scoped scratch: only the writer-slot holder
	// builds batches, and core does not retain the slice, so the session
	// reuses one backing array across batches (cleared after the apply so it
	// pins no delta payloads between batches).
	deltas := sess.batchScratch[:0]
	for _, rq := range accepted {
		deltas = append(deltas, rq.delta)
	}
	applyErr := sess.opt.ApplyDeltaBatch(deltas)
	clear(deltas)
	sess.batchScratch = deltas[:0]
	if applyErr != nil {
		// Every delta pre-checked, so only an engine-level failure lands
		// here; the network may hold a prefix of the batch — mark the
		// session pending so the next consistency-requiring request heals.
		// In persist mode the whole batch is remembered for the journal:
		// conservative (replay may over-apply the unapplied suffix, which
		// recovery's final validation catches by skipping the session) but
		// never silently under-journaled.
		sess.pendingReopt = true
		sess.rememberUnjournaled(accepted)
		ackAll(accepted, applyErr)
		return
	}
	// From here the network is mutated; if the re-optimisation fails
	// (deadline mid-solve) the flag makes the next consistency-requiring
	// request heal the session lazily — the dirty set survives in the
	// optimiser.  Identical to the serial path.  The mutations are not yet
	// journaled either, so the batch joins the pending journal and the next
	// successful publish's record carries it.
	sess.pendingReopt = true
	res, err := sess.opt.Reoptimize(ctx)
	if err != nil {
		sess.rememberUnjournaled(accepted)
		ackAll(accepted, err)
		return
	}
	prev := sess.snap.Load()
	snap := sess.buildSnapshot(uint64(len(accepted)))
	// Nothing is visible and no ack goes out until publish journaled the
	// record.  On failure readers keep the pre-batch state, the manager is
	// degraded, and pendingReopt stays set so consistency-requiring requests
	// fail instead of observing the un-journaled network.
	if err := s.publish(sess, sess.buildRecord(prev, snap, accepted), snap, nil); err != nil {
		sess.rememberUnjournaled(accepted)
		ackAll(accepted, err)
		return
	}
	changed := snap.assignment.ChangedHosts(prev.assignment)
	hosts := sess.net.NumHosts()
	for _, rq := range accepted {
		resp := DeltaResponse{
			ID:             sess.id,
			Version:        snap.version,
			Ops:            len(rq.delta.Ops),
			Hosts:          hosts,
			Energy:         snap.energy,
			AssignmentHash: snap.hash,
			Incremental:    res.Incremental,
			Rebuilt:        res.Rebuilt,
			DirtyNodes:     res.DirtyNodes,
			LiveNodes:      res.LiveNodes,
			ChangedHosts:   changed,
		}
		if len(accepted) > 1 {
			resp.Coalesced = len(accepted)
		}
		rq.ack(resp, nil)
	}
}

// checkConstraintRefs rejects remove_host ops targeting hosts the session's
// constraint set references.
func checkConstraintRefs(cs *netmodel.ConstraintSet, d netmodel.Delta) error {
	if cs == nil {
		return nil
	}
	for i, op := range d.Ops {
		if op.Op == netmodel.OpRemoveHost && cs.References(op.ID) {
			return fmt.Errorf("delta op %d: host %q is referenced by the constraint set", i, op.ID)
		}
	}
	return nil
}

package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Store errors surfaced as API error codes by the handlers.
var (
	// ErrSessionExists is returned when a create names an ID already live.
	ErrSessionExists = errors.New("serve: session already exists")
	// ErrTooManySessions is returned when the session cap is reached.
	ErrTooManySessions = errors.New("serve: session limit reached")
)

// store is the sharded session manager: the session ID hashes to a shard and
// each shard is an independently locked map, so lookups and inserts on
// different sessions never contend on one lock.  The shard mutex guards only
// the map — per-session state is guarded by the session's own writer slot.
type store struct {
	shards      []storeShard
	maxSessions int
	count       atomic.Int64
	nextID      atomic.Uint64
}

type storeShard struct {
	mu sync.RWMutex
	m  map[string]*session
}

func newStore(shards, maxSessions int) *store {
	st := &store{shards: make([]storeShard, shards), maxSessions: maxSessions}
	for i := range st.shards {
		st.shards[i].m = make(map[string]*session)
	}
	return st
}

// shard returns the shard owning an ID.  FNV-1a is inlined over the string:
// the hash/fnv boxed writer costs two heap allocations per lookup, and this
// sits on the path of every request.
func (st *store) shard(id string) *storeShard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return &st.shards[h%uint32(len(st.shards))]
}

// allocID returns the next server-assigned session ID.  IDs are allocated in
// creation order, so a client replaying the same request sequence against a
// fresh server observes identical IDs (part of the determinism contract).
func (st *store) allocID() string {
	return fmt.Sprintf("net-%d", st.nextID.Add(1))
}

// get returns the live session with the given ID.
func (st *store) get(id string) (*session, bool) {
	sh := st.shard(id)
	sh.mu.RLock()
	s, ok := sh.m[id]
	sh.mu.RUnlock()
	return s, ok
}

// put inserts a new session, enforcing ID uniqueness and the session cap.
// The cap slot is reserved atomically before the insert (and returned on any
// failure), so concurrent creates cannot overshoot MaxSessions.
func (st *store) put(s *session) error {
	if st.count.Add(1) > int64(st.maxSessions) && st.maxSessions > 0 {
		st.count.Add(-1)
		return ErrTooManySessions
	}
	sh := st.shard(s.id)
	sh.mu.Lock()
	if _, ok := sh.m[s.id]; ok {
		sh.mu.Unlock()
		st.count.Add(-1)
		return ErrSessionExists
	}
	sh.m[s.id] = s
	sh.mu.Unlock()
	return nil
}

// replace swaps a live session for its successor under the same ID in one
// step, so no lookup observes the ID missing in between.  The caller holds
// the predecessor's writer slot, which is what keeps the entry from being
// removed underneath it; the session count does not change.
func (st *store) replace(s *session) {
	sh := st.shard(s.id)
	sh.mu.Lock()
	sh.m[s.id] = s
	sh.mu.Unlock()
}

// remove deletes a session, reporting whether it was live.
func (st *store) remove(id string) bool {
	sh := st.shard(id)
	sh.mu.Lock()
	_, ok := sh.m[id]
	if ok {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
	if ok {
		st.count.Add(-1)
	}
	return ok
}

// list returns every live session sorted by ID (stable listing order for the
// index endpoint).
func (st *store) list() []*session {
	var out []*session
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for _, s := range sh.m {
			out = append(out, s)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// len returns the live session count.
func (st *store) len() int { return int(st.count.Load()) }

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
)

// assessBody is the fixed assessment request: 20 event-mode runs with a
// fixed request seed, so every assess of one session version is identical.
var assessBody = []byte(`{"knowledge":"full","mode":"event","runs":20,"max_ticks":100,"seed":7}`)

// op is one scheduled request.
type op struct {
	kind   opKind
	tenant int
	// body is the request body (delta, assess and create ops).
	body []byte
	// transient is the session ID a create op creates (and the untimed
	// DELETE that follows it removes).
	transient string
}

// schedule is the deterministic op stream of a run.  The kind order inside
// a cycle is a smooth weighted round-robin of the workload's cycle counts —
// the same for every seed, so the mix and the fresh/cached read split do not
// vary between seeds — and each kind walks the tenants round-robin.  Reads
// visit every tenant twice in a row, so each workload samples both the
// fresh and the cached read path.  The seed decides which hosts and links
// the deltas touch and the preference weights they carry.
type schedule struct {
	w       workload
	tenants []*tenant
	rng     *rand.Rand
	pattern []opKind
	issued  int
	perKind [numOps]int
	digest  uint64
}

func newSchedule(w workload, tenants []*tenant, seed int64) *schedule {
	return &schedule{w: w, tenants: tenants, rng: rand.New(rand.NewSource(seed)), pattern: cyclePattern(w.cycle)}
}

// cyclePattern interleaves the kinds of one cycle by smooth weighted
// round-robin: each step every kind gains its weight, the richest kind is
// issued and pays the total back.
func cyclePattern(counts [numOps]int) []opKind {
	total := 0
	for _, c := range counts {
		total += c
	}
	var credit [numOps]int
	out := make([]opKind, 0, total)
	for len(out) < total {
		best := opKind(0)
		for k := opKind(0); k < numOps; k++ {
			credit[k] += counts[k]
			if credit[k] > credit[best] {
				best = k
			}
		}
		credit[best] -= total
		out = append(out, best)
	}
	return out
}

// next returns the next op of the stream.  Delta bodies are generated here,
// against the client model as the earlier deltas left it.
func (s *schedule) next() op {
	kind := s.pattern[s.issued%len(s.pattern)]
	n := s.perKind[kind]
	if kind == opRead {
		n /= 2
	}
	ti := n % len(s.tenants)
	s.perKind[kind]++
	s.issued++
	o := op{kind: kind, tenant: ti}
	t := s.tenants[ti]
	switch kind {
	case opDelta:
		d := t.nudge
		if s.w.structural {
			d = t.structural
		}
		body, err := json.Marshal(d(s.rng))
		if err != nil {
			panic(err) // a Delta of plain strings and floats always marshals
		}
		o.body = body
	case opAssess:
		o.body = assessBody
	case opCreate:
		o.transient = fmt.Sprintf("x%d", s.perKind[opCreate])
		o.body = bytes.Replace(t.createBody, []byte(`"id":"`+t.id+`"`), []byte(`"id":"`+o.transient+`"`), 1)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%s|", s.digest, kind, ti, o.transient)
	if kind == opDelta {
		h.Write(o.body)
	}
	s.digest = h.Sum64()
	return o
}

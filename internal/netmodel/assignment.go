package netmodel

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"weak"
)

// Assignment is a product assignment α of Definition 3: for every host and
// every service it provides, the product chosen to deliver that service.
//
// An assignment is built mutable and becomes immutable when sealed: from then
// on every mutator panics (only a bug can mutate a solution shared with
// concurrent readers), so the optimiser, published snapshots, the WAL and any
// number of lock-free readers share one sealed value without a copy.  New
// versions are derived with With; Clone returns an unsealed deep copy.
type Assignment struct {
	products map[HostID]map[ServiceID]ProductID

	// order is a sealed assignment's sorted host list, built by Seal or carried
	// over by With before the assignment is shared — never lazily under
	// readers.  Hash and MarshalJSON walk it.
	sealed bool
	order  []HostID

	// base and touched record how With derived the assignment: from which
	// assignment, and which hosts may differ from it.  The base is held weakly,
	// so a served version never keeps its predecessors alive.
	base    weak.Pointer[Assignment]
	touched []HostID
}

// NewAssignment creates an empty assignment.
func NewAssignment() *Assignment {
	return &Assignment{products: make(map[HostID]map[ServiceID]ProductID)}
}

// Seal makes the assignment immutable, builds its sorted host order and
// returns it.  Call it before the assignment is shared between goroutines;
// sealing twice is a no-op.
func (a *Assignment) Seal() *Assignment {
	if !a.sealed {
		a.order = a.Hosts()
		a.sealed = true
	}
	return a
}

func (a *Assignment) mustBeMutable() {
	if a.sealed {
		panic("netmodel: mutation of a sealed assignment (Clone it first)")
	}
}

// With derives a new sealed assignment from a sealed one, which it does not
// modify: hosts in removed are dropped, hosts in changed get a copy of the
// given map (an empty map drops the host; a host in both follows its changed
// entry, as under ApplyPatch) and every other host shares its map with the
// base — O(hosts) pointer copies, O(changed) allocations.  The host order is
// carried over when the host set stays the same and merged otherwise.  It is
// the patch step of the delta path and of WAL and replica replay:
// prev.With(cur.DiffHosts(prev)) equals cur.
func (a *Assignment) With(changed map[HostID]map[ServiceID]ProductID, removed []HostID) *Assignment {
	if !a.sealed {
		panic("netmodel: With on an unsealed assignment (Seal it first)")
	}
	out := &Assignment{
		products: maps.Clone(a.products),
		sealed:   true,
		order:    a.order,
		base:     weak.Make(a),
		touched:  make([]HostID, 0, len(changed)+len(removed)),
	}
	left := false
	for _, h := range removed {
		if _, again := changed[h]; again {
			continue
		}
		out.touched = append(out.touched, h)
		if _, ok := out.products[h]; ok {
			delete(out.products, h)
			left = true
		}
	}
	var joined []HostID
	for h, m := range changed {
		out.touched = append(out.touched, h)
		_, had := out.products[h]
		switch {
		case len(m) > 0:
			out.products[h] = maps.Clone(m)
			if !had {
				joined = append(joined, h)
			}
		case had:
			delete(out.products, h)
			left = true
		}
	}
	if left || len(joined) > 0 {
		// Merge: drop the hosts that left, insert the few that joined.
		out.order = slices.DeleteFunc(slices.Clone(a.order), func(h HostID) bool { return out.products[h] == nil })
		for _, h := range joined {
			i, _ := slices.BinarySearch(out.order, h)
			out.order = slices.Insert(out.order, i, h)
		}
	}
	return out
}

// Set records α'(h, s) = p.
func (a *Assignment) Set(h HostID, s ServiceID, p ProductID) {
	a.mustBeMutable()
	m, ok := a.products[h]
	if !ok {
		m = make(map[ServiceID]ProductID)
		a.products[h] = m
	}
	m[s] = p
}

// Get returns α'(h, s) and whether it is assigned.
func (a *Assignment) Get(h HostID, s ServiceID) (ProductID, bool) {
	p, ok := a.products[h][s]
	return p, ok
}

// Product returns α'(h, s) or "" when unassigned.
func (a *Assignment) Product(h HostID, s ServiceID) ProductID {
	return a.products[h][s]
}

// HostAssignment returns a copy of α(h, S_h): all products assigned to the
// host, keyed by service.
func (a *Assignment) HostAssignment(h HostID) map[ServiceID]ProductID {
	src := a.products[h]
	out := make(map[ServiceID]ProductID, len(src))
	for s, p := range src {
		out[s] = p
	}
	return out
}

// Hosts returns the hosts that have at least one assigned service, sorted.
func (a *Assignment) Hosts() []HostID {
	if a.sealed {
		return slices.Clone(a.order)
	}
	out := make([]HostID, 0, len(a.products))
	for h := range a.products {
		out = append(out, h)
	}
	slices.Sort(out)
	return out
}

// Len returns the total number of (host, service) pairs assigned.
func (a *Assignment) Len() int {
	n := 0
	for _, m := range a.products {
		n += len(m)
	}
	return n
}

// SetHost replaces the host's whole service→product map with a copy of m.
// An empty or nil m removes the host from the assignment.  It is the patch
// primitive of the persistence plane: a WAL record stores the full post-state
// map of every changed host, so replay replaces host maps wholesale instead
// of merging individual services.
func (a *Assignment) SetHost(h HostID, m map[ServiceID]ProductID) {
	a.mustBeMutable()
	if len(m) == 0 {
		delete(a.products, h)
		return
	}
	a.products[h] = maps.Clone(m)
}

// RemoveHost drops every assignment of the host.
func (a *Assignment) RemoveHost(h HostID) {
	a.mustBeMutable()
	delete(a.products, h)
}

// sortedHosts is the order Hash and MarshalJSON walk: built once for a sealed
// assignment, sorted per call for a mutable one.
func (a *Assignment) sortedHosts() []HostID {
	if a.sealed {
		return a.order
	}
	return a.Hosts()
}

// sortedServices appends a host's services to buf (a stack buffer), sorted.
func sortedServices(buf []ServiceID, m map[ServiceID]ProductID) []ServiceID {
	for s := range m {
		buf = append(buf, s)
	}
	slices.Sort(buf)
	return buf
}

// Hash returns a stable FNV-1a fingerprint of the assignment covering every
// (host, service, product) triple in sorted order.  It is the determinism
// fingerprint the serving API exposes as assignment_hash and the integrity
// check the WAL journals with every record: recovery recomputes it over the
// replayed state and compares against the value journaled at write time.
//
// The byte stream hashed is "host NUL service NUL product LF" per triple and
// the result is the 64-bit sum as 16 lower-case hex digits.  Journaled
// records and peer nodes hold values of this exact function, so it is frozen:
// a golden test compares it against the original fmt/hash/fnv formulation.
// It runs on the ack path of every delta, hence the inlined FNV loop, the
// stack buffer for a host's services and the pre-built host order.
func (a *Assignment) Hash() string {
	if a == nil {
		return ""
	}
	h := uint64(fnvOffset64)
	var buf [8]ServiceID
	for _, host := range a.sortedHosts() {
		m := a.products[host]
		for _, svc := range sortedServices(buf[:0], m) {
			h = fnvString(h, string(host)) * fnvPrime64 // NUL: xor with 0 is a no-op
			h = fnvString(h, string(svc)) * fnvPrime64
			h = (fnvString(h, string(m[svc])) ^ '\n') * fnvPrime64
		}
	}
	const digits = "0123456789abcdef"
	var out [16]byte
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = digits[h&0xf]
		h >>= 4
	}
	return string(out[:])
}

// FNV-1a, 64 bit (hash/fnv's New64a without the io.Writer boxing).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// eachDiffCandidate calls visit with the current and previous map (nil when
// absent) of every host on which a and prev may differ: the hosts With touched
// when prev is the assignment a was derived from — all others share their map
// with it — and every host of either assignment otherwise.
func (a *Assignment) eachDiffCandidate(prev *Assignment, visit func(h HostID, cur, was map[ServiceID]ProductID)) {
	if prev == nil {
		prev = &Assignment{}
	} else if a.base.Value() == prev {
		for _, h := range a.touched {
			visit(h, a.products[h], prev.products[h])
		}
		return
	}
	for h, m := range a.products {
		visit(h, m, prev.products[h])
	}
	for h, pm := range prev.products {
		if _, ok := a.products[h]; !ok {
			visit(h, nil, pm)
		}
	}
}

// DiffHosts compares the assignment against a previous one, returning the
// per-host changes that turn prev into a: changed maps every host whose
// service→product map is new or different to a copy of its full current map,
// and removed lists (sorted) the hosts present in prev but absent now.  A WAL
// record carries exactly this pair, so replay is one With call — compact for
// incremental re-solves that move a few hosts, complete when a cold fallback
// reshuffles everything.
func (a *Assignment) DiffHosts(prev *Assignment) (changed map[HostID]map[ServiceID]ProductID, removed []HostID) {
	changed = make(map[HostID]map[ServiceID]ProductID)
	a.eachDiffCandidate(prev, func(h HostID, cur, was map[ServiceID]ProductID) {
		switch {
		case cur == nil:
			if was != nil {
				removed = append(removed, h)
			}
		case !maps.Equal(cur, was):
			changed[h] = maps.Clone(cur)
		}
	})
	slices.Sort(removed)
	return changed, slices.Compact(removed)
}

// ChangedHosts counts the hosts of a that joined or switched a product
// relative to prev: hosts with at least one (service, product) pair prev does
// not hold (all of them when prev is nil).  A host that only dropped
// services, or left altogether, is not counted.  It is the changed_hosts
// figure of a delta ack, taken without copying either assignment.
func (a *Assignment) ChangedHosts(prev *Assignment) int {
	changed := 0
	a.eachDiffCandidate(prev, func(_ HostID, cur, was map[ServiceID]ProductID) {
		for s, p := range cur {
			if old, ok := was[s]; !ok || old != p {
				changed++
				return
			}
		}
	})
	return changed
}

// ApplyPatch is With in place, on a mutable assignment: removed hosts are
// dropped, changed hosts have their whole map replaced.
func (a *Assignment) ApplyPatch(changed map[HostID]map[ServiceID]ProductID, removed []HostID) {
	a.mustBeMutable()
	for _, h := range removed {
		delete(a.products, h)
	}
	for h, m := range changed {
		a.SetHost(h, m)
	}
}

// Clone returns an unsealed deep copy of the assignment.
func (a *Assignment) Clone() *Assignment {
	c := &Assignment{products: make(map[HostID]map[ServiceID]ProductID, len(a.products))}
	for h, m := range a.products {
		c.products[h] = maps.Clone(m)
	}
	return c
}

// Equal reports whether two assignments assign exactly the same products.
func (a *Assignment) Equal(b *Assignment) bool {
	if a.Len() != b.Len() {
		return false
	}
	for h, m := range a.products {
		for s, p := range m {
			if bp, ok := b.Get(h, s); !ok || bp != p {
				return false
			}
		}
	}
	return true
}

// ErrIncomplete is returned by ValidateFor when the assignment misses a
// (host, service) pair required by the network.
var ErrIncomplete = errors.New("netmodel: incomplete assignment")

// ValidateFor checks that the assignment is complete and consistent for the
// network: every (host, service) pair is assigned one of the host's candidate
// products and no extraneous hosts or services appear.
func (a *Assignment) ValidateFor(n *Network) error {
	for _, hid := range n.Hosts() {
		h, _ := n.Host(hid)
		for _, s := range h.Services {
			p, ok := a.Get(hid, s)
			if !ok {
				return fmt.Errorf("%w: host %q service %q", ErrIncomplete, hid, s)
			}
			if h.CandidateIndex(s, p) < 0 {
				return fmt.Errorf("netmodel: host %q service %q assigned %q which is not a candidate",
					hid, s, p)
			}
		}
	}
	for h, m := range a.products {
		host, ok := n.Host(h)
		if !ok {
			return fmt.Errorf("%w: assigned host %q", ErrUnknownHost, h)
		}
		for s := range m {
			if !host.HasService(s) {
				return fmt.Errorf("netmodel: host %q does not provide assigned service %q", h, s)
			}
		}
	}
	return nil
}

// DiversityStats summarises how diverse an assignment is, independent of any
// similarity table: for every service, how many distinct products are used
// and how many links connect hosts using the identical product.
type DiversityStats struct {
	// DistinctProducts counts distinct products per service.
	DistinctProducts map[ServiceID]int
	// SameProductEdges counts, per service, links whose two endpoints run
	// the identical product for that service.
	SameProductEdges map[ServiceID]int
	// TotalSharedEdges counts, per service, links whose endpoints both
	// provide the service (the denominator for SameProductEdges).
	TotalSharedEdges map[ServiceID]int
}

// Stats computes DiversityStats of the assignment over the network.
func (a *Assignment) Stats(n *Network) DiversityStats {
	st := DiversityStats{
		DistinctProducts: make(map[ServiceID]int),
		SameProductEdges: make(map[ServiceID]int),
		TotalSharedEdges: make(map[ServiceID]int),
	}
	distinct := make(map[ServiceID]map[ProductID]struct{})
	for _, hid := range n.Hosts() {
		h, _ := n.Host(hid)
		for _, s := range h.Services {
			p, ok := a.Get(hid, s)
			if !ok {
				continue
			}
			if distinct[s] == nil {
				distinct[s] = make(map[ProductID]struct{})
			}
			distinct[s][p] = struct{}{}
		}
	}
	for s, set := range distinct {
		st.DistinctProducts[s] = len(set)
	}
	for _, l := range n.Links() {
		for _, s := range n.SharedServices(l.A, l.B) {
			pa, oka := a.Get(l.A, s)
			pb, okb := a.Get(l.B, s)
			if !oka || !okb {
				continue
			}
			st.TotalSharedEdges[s]++
			if pa == pb {
				st.SameProductEdges[s]++
			}
		}
	}
	return st
}

// String renders the assignment sorted by host then service, one host per
// line, e.g. "c1: os=win7 web_browser=ie10".
func (a *Assignment) String() string {
	hosts := a.Hosts()
	var b strings.Builder
	for _, h := range hosts {
		m := a.products[h]
		b.WriteString(string(h))
		b.WriteString(":")
		for _, s := range sortedServices(nil, m) {
			fmt.Fprintf(&b, " %s=%s", s, m[s])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Diff returns the hosts/services on which two assignments differ, rendered
// as "host/service: a -> b" lines sorted lexicographically.  Used to report
// how constrained solutions deviate from the unconstrained optimum (the red
// squares of Fig. 4(b)).
func (a *Assignment) Diff(b *Assignment) []string {
	var out []string
	seen := make(map[string]struct{})
	add := func(h HostID, s ServiceID, pa, pb ProductID) {
		key := string(h) + "/" + string(s)
		if _, ok := seen[key]; ok {
			return
		}
		seen[key] = struct{}{}
		if pa != pb {
			out = append(out, fmt.Sprintf("%s/%s: %s -> %s", h, s, orNone(pa), orNone(pb)))
		}
	}
	for h, m := range a.products {
		for s, pa := range m {
			pb, _ := b.Get(h, s)
			add(h, s, pa, pb)
		}
	}
	for h, m := range b.products {
		for s, pb := range m {
			pa, _ := a.Get(h, s)
			add(h, s, pa, pb)
		}
	}
	sort.Strings(out)
	return out
}

func orNone(p ProductID) string {
	if p == "" {
		return "<none>"
	}
	return string(p)
}

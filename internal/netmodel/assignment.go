package netmodel

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Assignment is a product assignment α of Definition 3: for every host and
// every service it provides, the product chosen to deliver that service.
type Assignment struct {
	products map[HostID]map[ServiceID]ProductID
}

// NewAssignment creates an empty assignment.
func NewAssignment() *Assignment {
	return &Assignment{products: make(map[HostID]map[ServiceID]ProductID)}
}

// Set records α'(h, s) = p.
func (a *Assignment) Set(h HostID, s ServiceID, p ProductID) {
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
	if len(m) == 0 {
		delete(a.products, h)
		return
	}
	mm := make(map[ServiceID]ProductID, len(m))
	for s, p := range m {
		mm[s] = p
	}
	a.products[h] = mm
}

// RemoveHost drops every assignment of the host.
func (a *Assignment) RemoveHost(h HostID) { delete(a.products, h) }

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
// It runs on the ack path of every delta, hence the inlined FNV loop and the
// stack buffer for a host's services.
func (a *Assignment) Hash() string {
	if a == nil {
		return ""
	}
	h := uint64(fnvOffset64)
	var buf [8]ServiceID
	for _, host := range a.Hosts() {
		m := a.products[host]
		services := buf[:0]
		for s := range m {
			services = append(services, s)
		}
		slices.Sort(services)
		for _, svc := range services {
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

// DiffHosts compares the assignment against a previous one, returning the
// per-host changes that turn prev into a: changed maps every host whose
// service→product map is new or different to a copy of its full current map,
// and removed lists (sorted) the hosts present in prev but absent now.  A WAL
// record carries exactly this pair, so replay is a sequence of SetHost and
// RemoveHost calls (see ApplyPatch) — compact for incremental re-solves that
// move a few hosts, complete when a cold fallback reshuffles everything.
func (a *Assignment) DiffHosts(prev *Assignment) (changed map[HostID]map[ServiceID]ProductID, removed []HostID) {
	changed = make(map[HostID]map[ServiceID]ProductID)
	for h, m := range a.products {
		var pm map[ServiceID]ProductID
		if prev != nil {
			pm = prev.products[h]
		}
		same := len(pm) == len(m)
		if same {
			for s, p := range m {
				if pp, ok := pm[s]; !ok || pp != p {
					same = false
					break
				}
			}
		}
		if !same {
			mm := make(map[ServiceID]ProductID, len(m))
			for s, p := range m {
				mm[s] = p
			}
			changed[h] = mm
		}
	}
	if prev != nil {
		for h := range prev.products {
			if _, ok := a.products[h]; !ok {
				removed = append(removed, h)
			}
		}
	}
	sort.Slice(removed, func(i, j int) bool { return removed[i] < removed[j] })
	return changed, removed
}

// ChangedHosts counts the hosts of a that joined or switched a product
// relative to prev: hosts with at least one (service, product) pair prev does
// not hold (all of them when prev is nil).  A host that only dropped
// services, or left altogether, is not counted.  It is the changed_hosts
// figure of a delta ack, taken in one walk over the two assignments without
// copying either.
func (a *Assignment) ChangedHosts(prev *Assignment) int {
	changed := 0
	for h, m := range a.products {
		var pm map[ServiceID]ProductID
		if prev != nil {
			pm = prev.products[h]
		}
		for s, p := range m {
			if was, ok := pm[s]; !ok || was != p {
				changed++
				break
			}
		}
	}
	return changed
}

// ApplyPatch applies a DiffHosts result in place: removed hosts are dropped,
// changed hosts have their whole map replaced.  Applying the patch produced
// by cur.DiffHosts(prev) to a clone of prev yields an assignment equal to
// cur — the replay invariant the WAL's recovery tests pin.
func (a *Assignment) ApplyPatch(changed map[HostID]map[ServiceID]ProductID, removed []HostID) {
	for _, h := range removed {
		delete(a.products, h)
	}
	for h, m := range changed {
		a.SetHost(h, m)
	}
}

// Clone returns a deep copy of the assignment.
func (a *Assignment) Clone() *Assignment {
	c := NewAssignment()
	for h, m := range a.products {
		for s, p := range m {
			c.Set(h, s, p)
		}
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
		services := make([]ServiceID, 0, len(m))
		for s := range m {
			services = append(services, s)
		}
		sort.Slice(services, func(i, j int) bool { return services[i] < services[j] })
		b.WriteString(string(h))
		b.WriteString(":")
		for _, s := range services {
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

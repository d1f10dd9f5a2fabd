// Package netmodel implements the formal network model of Section IV of the
// paper: a network N = <H, L, S, P> of hosts and links in which every host
// provides a set of services and every service can be delivered by one of
// several candidate products (Definition 2), together with product
// assignments (Definition 3) and local/global configuration constraints
// (Definition 4).
package netmodel

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

type (
	// HostID identifies a host (h_i in the paper).
	HostID string
	// ServiceID identifies a service (s_j in the paper), e.g. "os".
	ServiceID string
	// ProductID identifies a product (p^x_{s_j} in the paper), e.g. "win7".
	ProductID string
)

// Common service identifiers used by the case study.
const (
	ServiceOS       ServiceID = "os"
	ServiceBrowser  ServiceID = "web_browser"
	ServiceDatabase ServiceID = "database"
)

// Host is a single host of the network together with the services it must
// provide and the candidate products for each service.
type Host struct {
	// ID is the unique host identifier (e.g. "c1", "t5").
	ID HostID
	// Zone is the network zone the host belongs to (e.g. "corporate",
	// "dmz", "control"); informational, used by topology generators and
	// reporting.
	Zone string
	// Role is a human-readable description (e.g. "WinCC Web Client").
	Role string
	// Services lists the services the host must provide, in a stable order.
	Services []ServiceID
	// Choices maps every service to its candidate products.  A service with
	// exactly one candidate is effectively fixed (a legacy host).
	Choices map[ServiceID][]ProductID
	// Preference optionally biases the unary cost: Preference[s][p] is the
	// preference weight Pr(p | host) of Definition/Eq. 2.  Missing entries
	// fall back to the optimiser's uniform constant.
	Preference map[ServiceID]map[ProductID]float64
	// Legacy marks hosts that run outdated software and must not be
	// diversified (the grey hosts of Fig. 3 / Table IV).
	Legacy bool
}

// Clone returns a deep copy of the host.
func (h *Host) Clone() *Host {
	c := &Host{
		ID:       h.ID,
		Zone:     h.Zone,
		Role:     h.Role,
		Services: append([]ServiceID(nil), h.Services...),
		Legacy:   h.Legacy,
	}
	if h.Choices != nil {
		c.Choices = make(map[ServiceID][]ProductID, len(h.Choices))
		for s, ps := range h.Choices {
			c.Choices[s] = append([]ProductID(nil), ps...)
		}
	}
	if h.Preference != nil {
		c.Preference = make(map[ServiceID]map[ProductID]float64, len(h.Preference))
		for s, m := range h.Preference {
			mm := make(map[ProductID]float64, len(m))
			for p, v := range m {
				mm[p] = v
			}
			c.Preference[s] = mm
		}
	}
	return c
}

// HasService reports whether the host provides the service.
func (h *Host) HasService(s ServiceID) bool {
	for _, sv := range h.Services {
		if sv == s {
			return true
		}
	}
	return false
}

// CandidateIndex returns the position of a product in the host's candidate
// list for the service, or -1.
func (h *Host) CandidateIndex(s ServiceID, p ProductID) int {
	for i, cand := range h.Choices[s] {
		if cand == p {
			return i
		}
	}
	return -1
}

// Link is an undirected connection between two hosts (an element of L).
type Link struct {
	A HostID `json:"a"`
	B HostID `json:"b"`
}

// canonical returns the link with endpoints in lexicographic order so that
// (a,b) and (b,a) are the same edge.
func (l Link) canonical() Link {
	if l.B < l.A {
		return Link{A: l.B, B: l.A}
	}
	return l
}

// Network is the network N = <H, L, S, P> of Definition 2.
type Network struct {
	hosts map[HostID]*Host
	order []HostID
	links map[Link]struct{}
	adj   map[HostID]map[HostID]struct{}
	// journal, when non-nil, records every mutation as a DeltaOp (see
	// BeginJournal).
	journal *Delta
}

// New creates an empty network.
func New() *Network {
	return &Network{
		hosts: make(map[HostID]*Host),
		links: make(map[Link]struct{}),
		adj:   make(map[HostID]map[HostID]struct{}),
	}
}

// Errors returned by network construction and validation.
var (
	ErrDuplicateHost = errors.New("netmodel: duplicate host")
	ErrUnknownHost   = errors.New("netmodel: unknown host")
	ErrSelfLink      = errors.New("netmodel: self link")
	ErrNoServices    = errors.New("netmodel: host provides no services")
	ErrNoCandidates  = errors.New("netmodel: service has no candidate products")
)

// validateServiceSet checks a host's service list and candidate products:
// at least one service, no duplicate services, and at least one candidate
// per service.  Shared by AddHost and UpdateHostServices so host validation
// cannot drift between the construction and mutation paths.
func validateServiceSet(id HostID, services []ServiceID, choices map[ServiceID][]ProductID) error {
	if len(services) == 0 {
		return fmt.Errorf("%w: %q", ErrNoServices, id)
	}
	seen := make(map[ServiceID]struct{}, len(services))
	for _, s := range services {
		if _, dup := seen[s]; dup {
			return fmt.Errorf("netmodel: host %q lists service %q twice", id, s)
		}
		seen[s] = struct{}{}
		if len(choices[s]) == 0 {
			return fmt.Errorf("%w: host %q service %q", ErrNoCandidates, id, s)
		}
	}
	return nil
}

// AddHost inserts a host into the network.  The host is deep-copied, so the
// caller may reuse or modify the argument afterwards.
func (n *Network) AddHost(h *Host) error {
	if h == nil || h.ID == "" {
		return errors.New("netmodel: host must have an ID")
	}
	if _, ok := n.hosts[h.ID]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateHost, h.ID)
	}
	if err := validateServiceSet(h.ID, h.Services, h.Choices); err != nil {
		return err
	}
	n.hosts[h.ID] = h.Clone()
	n.order = append(n.order, h.ID)
	n.adj[h.ID] = make(map[HostID]struct{})
	n.record(func() DeltaOp {
		spec := SpecOfHost(n.hosts[h.ID])
		return DeltaOp{Op: OpAddHost, Host: &spec}
	})
	return nil
}

// RemoveHost deletes a host and every link incident to it.
func (n *Network) RemoveHost(id HostID) error {
	if _, ok := n.hosts[id]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, id)
	}
	for nb := range n.adj[id] {
		delete(n.adj[nb], id)
		delete(n.links, Link{A: id, B: nb}.canonical())
	}
	delete(n.adj, id)
	delete(n.hosts, id)
	for i, hid := range n.order {
		if hid == id {
			n.order = append(n.order[:i], n.order[i+1:]...)
			break
		}
	}
	n.record(func() DeltaOp { return DeltaOp{Op: OpRemoveHost, ID: id} })
	return nil
}

// AddLink inserts an undirected link between two existing hosts.  Adding the
// same link twice is a no-op.
func (n *Network) AddLink(a, b HostID) error {
	if a == b {
		return fmt.Errorf("%w: %q", ErrSelfLink, a)
	}
	if _, ok := n.hosts[a]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, a)
	}
	if _, ok := n.hosts[b]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, b)
	}
	l := Link{A: a, B: b}.canonical()
	if _, ok := n.links[l]; ok {
		return nil
	}
	n.links[l] = struct{}{}
	n.adj[a][b] = struct{}{}
	n.adj[b][a] = struct{}{}
	n.record(func() DeltaOp { return DeltaOp{Op: OpAddEdge, A: l.A, B: l.B} })
	return nil
}

// AddEdge is AddLink under the mutation-API name used by deltas.
func (n *Network) AddEdge(a, b HostID) error { return n.AddLink(a, b) }

// RemoveEdge deletes the undirected link between two hosts.  Removing a link
// that does not exist is a no-op (the hosts must still exist).
func (n *Network) RemoveEdge(a, b HostID) error {
	if _, ok := n.hosts[a]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, a)
	}
	if _, ok := n.hosts[b]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, b)
	}
	l := Link{A: a, B: b}.canonical()
	if _, ok := n.links[l]; !ok {
		return nil
	}
	delete(n.links, l)
	delete(n.adj[a], b)
	delete(n.adj[b], a)
	n.record(func() DeltaOp { return DeltaOp{Op: OpRemoveEdge, A: l.A, B: l.B} })
	return nil
}

// RemoveLink is RemoveEdge under the legacy link terminology.
func (n *Network) RemoveLink(a, b HostID) error { return n.RemoveEdge(a, b) }

// UpdateHostServices replaces a host's service set, candidate products and
// preferences in one step (a "service upgrade" event).  The replacement is
// validated like AddHost and deep-copied; passing a nil preference clears the
// host's preferences.
func (n *Network) UpdateHostServices(id HostID, services []ServiceID, choices map[ServiceID][]ProductID, pref map[ServiceID]map[ProductID]float64) error {
	h, ok := n.hosts[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, id)
	}
	if err := validateServiceSet(id, services, choices); err != nil {
		return err
	}
	repl := &Host{ID: id, Services: services, Choices: choices, Preference: pref}
	repl = repl.Clone() // deep-copy the caller's slices/maps
	h.Services = repl.Services
	h.Choices = repl.Choices
	h.Preference = repl.Preference
	n.record(func() DeltaOp {
		spec := SpecOfHost(h)
		return DeltaOp{Op: OpUpdateHostServices, ID: id,
			Services: spec.Services, Choices: spec.Choices, Preference: spec.Preference}
	})
	return nil
}

// BeginJournal starts (or resets) mutation recording: every subsequent
// AddHost/RemoveHost/AddEdge/RemoveEdge/UpdateHostServices is appended to an
// internal Delta until TakeJournal is called.
func (n *Network) BeginJournal() {
	n.journal = &Delta{}
}

// TakeJournal returns the mutations recorded since BeginJournal and stops
// recording.  It returns an empty delta when no journal was started.
func (n *Network) TakeJournal() Delta {
	if n.journal == nil {
		return Delta{}
	}
	d := *n.journal
	n.journal = nil
	return d
}

// record appends a journal entry when recording is active.  The op is built
// lazily so non-journaling mutations pay nothing.
func (n *Network) record(op func() DeltaOp) {
	if n.journal != nil {
		n.journal.Ops = append(n.journal.Ops, op())
	}
}

// Host returns the host with the given ID.  The returned pointer refers to
// the network's internal copy; callers must not mutate it.
func (n *Network) Host(id HostID) (*Host, bool) {
	h, ok := n.hosts[id]
	return h, ok
}

// Hosts returns all host IDs in insertion order.
func (n *Network) Hosts() []HostID {
	out := make([]HostID, len(n.order))
	copy(out, n.order)
	return out
}

// NumHosts returns |H|.
func (n *Network) NumHosts() int { return len(n.order) }

// NumLinks returns |L|.
func (n *Network) NumLinks() int { return len(n.links) }

// Links returns every link exactly once, sorted for determinism.
func (n *Network) Links() []Link {
	out := make([]Link, 0, len(n.links))
	for l := range n.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Neighbors returns the hosts adjacent to the given host, sorted.
func (n *Network) Neighbors(id HostID) []HostID {
	adj := n.adj[id]
	out := make([]HostID, 0, len(adj))
	for h := range adj {
		out = append(out, h)
	}
	slices.Sort(out)
	return out
}

// Connected reports whether the two hosts share a link.
func (n *Network) Connected(a, b HostID) bool {
	_, ok := n.adj[a][b]
	return ok
}

// Services returns the union of all services provided by any host, sorted.
func (n *Network) Services() []ServiceID {
	set := make(map[ServiceID]struct{})
	for _, h := range n.hosts {
		for _, s := range h.Services {
			set[s] = struct{}{}
		}
	}
	out := make([]ServiceID, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Products returns the union of all candidate products across hosts, sorted.
func (n *Network) Products() []ProductID {
	set := make(map[ProductID]struct{})
	for _, h := range n.hosts {
		for _, ps := range h.Choices {
			for _, p := range ps {
				set[p] = struct{}{}
			}
		}
	}
	out := make([]ProductID, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SharedServices returns the services provided by both hosts — the set
// S_hi ∩ S_hj over which the pairwise cost of Eq. 3 is accumulated.
func (n *Network) SharedServices(a, b HostID) []ServiceID {
	ha, oka := n.hosts[a]
	hb, okb := n.hosts[b]
	if !oka || !okb {
		return nil
	}
	var out []ServiceID
	for _, s := range ha.Services {
		if hb.HasService(s) {
			out = append(out, s)
		}
	}
	return out
}

// Degree returns the number of neighbours of a host.
func (n *Network) Degree(id HostID) int { return len(n.adj[id]) }

// MaxDegree returns the largest degree in the network.
func (n *Network) MaxDegree() int {
	max := 0
	for _, adj := range n.adj {
		if len(adj) > max {
			max = len(adj)
		}
	}
	return max
}

// Validate performs a structural sanity check of the whole network.
func (n *Network) Validate() error {
	if len(n.order) == 0 {
		return errors.New("netmodel: network has no hosts")
	}
	for _, id := range n.order {
		h := n.hosts[id]
		if len(h.Services) == 0 {
			return fmt.Errorf("%w: %q", ErrNoServices, id)
		}
		for _, s := range h.Services {
			if len(h.Choices[s]) == 0 {
				return fmt.Errorf("%w: host %q service %q", ErrNoCandidates, id, s)
			}
		}
	}
	for l := range n.links {
		if _, ok := n.hosts[l.A]; !ok {
			return fmt.Errorf("%w: link endpoint %q", ErrUnknownHost, l.A)
		}
		if _, ok := n.hosts[l.B]; !ok {
			return fmt.Errorf("%w: link endpoint %q", ErrUnknownHost, l.B)
		}
	}
	return nil
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	c := New()
	for _, id := range n.order {
		// Errors cannot occur: the source network is already valid.
		_ = c.AddHost(n.hosts[id])
	}
	for l := range n.links {
		_ = c.AddLink(l.A, l.B)
	}
	return c
}

// ConnectedComponents returns the host sets of each connected component,
// largest first.  Useful for validating generated topologies.
func (n *Network) ConnectedComponents() [][]HostID {
	visited := make(map[HostID]bool, len(n.order))
	var comps [][]HostID
	for _, start := range n.order {
		if visited[start] {
			continue
		}
		var comp []HostID
		queue := []HostID{start}
		visited[start] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			comp = append(comp, cur)
			for nb := range n.adj[cur] {
				if !visited[nb] {
					visited[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// ShortestPathLengths returns BFS hop counts from the source host to every
// reachable host.  Used by the Bayesian-network layering and by reporting.
func (n *Network) ShortestPathLengths(src HostID) map[HostID]int {
	dist := make(map[HostID]int, len(n.order))
	if _, ok := n.hosts[src]; !ok {
		return dist
	}
	dist[src] = 0
	queue := []HostID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for nb := range n.adj[cur] {
			if _, seen := dist[nb]; !seen {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

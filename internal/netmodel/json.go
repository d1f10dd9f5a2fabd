package netmodel

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"sort"
)

// Spec is the JSON representation of a network plus optional constraints,
// consumed and produced by the cmd/ tools and by examples.
type Spec struct {
	Hosts       []HostSpec        `json:"hosts"`
	Links       []Link            `json:"links"`
	Constraints []Constraint      `json:"constraints,omitempty"`
	Fixed       []FixedSpec       `json:"fixed,omitempty"`
	Meta        map[string]string `json:"meta,omitempty"`
}

// HostSpec is the JSON representation of a host.
type HostSpec struct {
	ID         HostID                              `json:"id"`
	Zone       string                              `json:"zone,omitempty"`
	Role       string                              `json:"role,omitempty"`
	Legacy     bool                                `json:"legacy,omitempty"`
	Services   []ServiceID                         `json:"services"`
	Choices    map[ServiceID][]ProductID           `json:"choices"`
	Preference map[ServiceID]map[ProductID]float64 `json:"preference,omitempty"`
}

// FixedSpec pins a host's service to a product in the JSON form.
type FixedSpec struct {
	Host    HostID    `json:"host"`
	Service ServiceID `json:"service"`
	Product ProductID `json:"product"`
}

// SpecOfHost converts a host into its JSON form (deep copies throughout).
func SpecOfHost(h *Host) HostSpec {
	hs := HostSpec{
		ID:       h.ID,
		Zone:     h.Zone,
		Role:     h.Role,
		Legacy:   h.Legacy,
		Services: append([]ServiceID(nil), h.Services...),
		Choices:  make(map[ServiceID][]ProductID, len(h.Choices)),
	}
	for s, ps := range h.Choices {
		hs.Choices[s] = append([]ProductID(nil), ps...)
	}
	if len(h.Preference) > 0 {
		hs.Preference = make(map[ServiceID]map[ProductID]float64, len(h.Preference))
		for s, m := range h.Preference {
			mm := make(map[ProductID]float64, len(m))
			for p, v := range m {
				mm[p] = v
			}
			hs.Preference[s] = mm
		}
	}
	return hs
}

// Host converts the JSON form back into a host.  The result shares the
// spec's slices and maps; Network.AddHost deep-copies on insertion.
func (hs HostSpec) Host() *Host {
	return &Host{
		ID:         hs.ID,
		Zone:       hs.Zone,
		Role:       hs.Role,
		Legacy:     hs.Legacy,
		Services:   hs.Services,
		Choices:    hs.Choices,
		Preference: hs.Preference,
	}
}

// ToSpec converts a network and optional constraint set into a Spec.
func ToSpec(n *Network, cs *ConstraintSet) Spec {
	spec := Spec{}
	for _, id := range n.Hosts() {
		h, _ := n.Host(id)
		spec.Hosts = append(spec.Hosts, SpecOfHost(h))
	}
	spec.Links = n.Links()
	if cs != nil {
		spec.Constraints = cs.Constraints()
		for _, h := range cs.FixedHosts() {
			m := cs.fixed[h]
			services := make([]ServiceID, 0, len(m))
			for s := range m {
				services = append(services, s)
			}
			sort.Slice(services, func(i, j int) bool { return services[i] < services[j] })
			for _, s := range services {
				spec.Fixed = append(spec.Fixed, FixedSpec{Host: h, Service: s, Product: m[s]})
			}
		}
	}
	return spec
}

// FromSpec reconstructs a network and constraint set from a Spec.
func FromSpec(spec Spec) (*Network, *ConstraintSet, error) {
	n := New()
	for i := range spec.Hosts {
		hs := spec.Hosts[i]
		if err := n.AddHost(hs.Host()); err != nil {
			return nil, nil, fmt.Errorf("netmodel: spec host %q: %w", hs.ID, err)
		}
	}
	for _, l := range spec.Links {
		if err := n.AddLink(l.A, l.B); err != nil {
			return nil, nil, fmt.Errorf("netmodel: spec link %s-%s: %w", l.A, l.B, err)
		}
	}
	cs := NewConstraintSet()
	for _, c := range spec.Constraints {
		cs.Add(c)
	}
	for _, f := range spec.Fixed {
		cs.Fix(f.Host, f.Service, f.Product)
	}
	if err := cs.Validate(n); err != nil {
		return nil, nil, err
	}
	return n, cs, nil
}

// WriteSpec encodes the network (and constraints, may be nil) as indented
// JSON to w.
func WriteSpec(w io.Writer, n *Network, cs *ConstraintSet) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ToSpec(n, cs)); err != nil {
		return fmt.Errorf("netmodel: encode spec: %w", err)
	}
	return nil
}

// ReadSpec decodes a network spec from r.
func ReadSpec(r io.Reader) (*Network, *ConstraintSet, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	if err := dec.Decode(&spec); err != nil {
		return nil, nil, fmt.Errorf("netmodel: decode spec: %w", err)
	}
	return FromSpec(spec)
}

// SpecLimits bounds the size of a spec decoded from an untrusted source
// (the divd network-create endpoint).  A zero field means "unlimited", so
// the zero value disables all checks and trusted callers keep the old
// behaviour.
type SpecLimits struct {
	// MaxHosts bounds the host count.
	MaxHosts int
	// MaxLinks bounds the link count.
	MaxLinks int
	// MaxConstraints bounds constraints plus fixed-product pins.
	MaxConstraints int
	// MaxServicesPerHost bounds the service list of any one host.
	MaxServicesPerHost int
	// MaxChoicesPerService bounds the candidate list of any one service.
	MaxChoicesPerService int
}

// hostShapeWithinLimits checks one host description against the per-host
// limits (shared by spec and delta validation).
func (l SpecLimits) hostShapeWithinLimits(hs *HostSpec) error {
	if l.MaxServicesPerHost > 0 && len(hs.Services) > l.MaxServicesPerHost {
		return fmt.Errorf("netmodel: host %q has %d services, limit %d", hs.ID, len(hs.Services), l.MaxServicesPerHost)
	}
	if l.MaxChoicesPerService > 0 {
		for s, ps := range hs.Choices {
			if len(ps) > l.MaxChoicesPerService {
				return fmt.Errorf("netmodel: host %q service %q has %d candidate products, limit %d",
					hs.ID, s, len(ps), l.MaxChoicesPerService)
			}
		}
	}
	return nil
}

// CheckLimits verifies the spec against the limits, returning the first
// violation.  It is a pure size check — structural validation (duplicate
// hosts, dangling links, malformed constraints) still happens in FromSpec.
func (s Spec) CheckLimits(l SpecLimits) error {
	if l.MaxHosts > 0 && len(s.Hosts) > l.MaxHosts {
		return fmt.Errorf("netmodel: spec has %d hosts, limit %d", len(s.Hosts), l.MaxHosts)
	}
	if l.MaxLinks > 0 && len(s.Links) > l.MaxLinks {
		return fmt.Errorf("netmodel: spec has %d links, limit %d", len(s.Links), l.MaxLinks)
	}
	if l.MaxConstraints > 0 && len(s.Constraints)+len(s.Fixed) > l.MaxConstraints {
		return fmt.Errorf("netmodel: spec has %d constraints, limit %d", len(s.Constraints)+len(s.Fixed), l.MaxConstraints)
	}
	for i := range s.Hosts {
		if err := l.hostShapeWithinLimits(&s.Hosts[i]); err != nil {
			return err
		}
	}
	return nil
}

// DecodeSpecStrict decodes a spec from untrusted input: unknown JSON fields
// are rejected (they are always a caller bug or a probe, never valid data),
// trailing garbage after the spec object fails the decode, and the limits are
// enforced before the network is built, so an oversized spec is rejected in
// O(spec) without allocating the model.  Callers bound the raw byte size
// separately (http.MaxBytesReader / io.LimitReader).
func DecodeSpecStrict(r io.Reader, limits SpecLimits) (*Network, *ConstraintSet, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, nil, fmt.Errorf("netmodel: decode spec: %w", err)
	}
	// A spec is a single document: anything after the object is garbage.
	if dec.More() {
		return nil, nil, fmt.Errorf("netmodel: decode spec: trailing data after spec object")
	}
	if err := spec.CheckLimits(limits); err != nil {
		return nil, nil, err
	}
	return FromSpec(spec)
}

// MarshalJSON serialises the assignment as {"hosts":{host:{service:product}}},
// hosts and services sorted — byte for byte what encoding/json produces for the
// nested map, without its reflection, per-map key sort or a copy of the maps:
// one walk over the host order appending into one buffer.  Fresh assignment
// reads, WAL snapshots and replication full syncs all encode through it.
func (a *Assignment) MarshalJSON() ([]byte, error) {
	hosts := a.sortedHosts()
	buf := make([]byte, 0, 16+64*len(hosts))
	buf = append(buf, `{"hosts":{`...)
	var sbuf [8]ServiceID
	for i, h := range hosts {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, string(h))
		buf = append(buf, ':', '{')
		m := a.products[h]
		for j, svc := range sortedServices(sbuf[:0], m) {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, string(svc))
			buf = append(buf, ':')
			buf = appendJSONString(buf, string(m[svc]))
		}
		buf = append(buf, '}')
	}
	return append(buf, '}', '}'), nil
}

// appendJSONString appends s as encoding/json renders it: printable ASCII
// without the characters json.Marshal escapes (", \, <, >, &) is copied;
// control bytes, non-ASCII and invalid UTF-8 take the library's escaper.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // marshalling a string cannot fail
			return append(buf, quoted...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// UnmarshalJSON replaces the assignment's contents; the result is mutable.
// Decoding into a sealed assignment is an error.
func (a *Assignment) UnmarshalJSON(data []byte) error {
	if a.sealed {
		return errors.New("netmodel: decode into a sealed assignment")
	}
	var in struct {
		Hosts map[HostID]map[ServiceID]ProductID `json:"hosts"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("netmodel: decode assignment: %w", err)
	}
	if in.Hosts == nil {
		in.Hosts = make(map[HostID]map[ServiceID]ProductID)
	}
	maps.DeleteFunc(in.Hosts, func(_ HostID, m map[ServiceID]ProductID) bool { return len(m) == 0 })
	*a = Assignment{products: in.Hosts}
	return nil
}

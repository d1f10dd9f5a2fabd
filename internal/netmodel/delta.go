package netmodel

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Real networks churn: hosts join and leave, services get upgraded,
// vulnerability data refreshes.  Instead of forcing callers to rebuild a
// Network (and every structure derived from it) on each change, the network
// exposes a mutation API — AddHost, RemoveHost, AddEdge, RemoveEdge,
// UpdateHostServices — and can record those mutations into a change journal.
// The journal entries form a Delta: a serialisable, replayable description of
// an evolution step that downstream consumers (the incremental optimiser in
// internal/core, divd's delta endpoint) apply without re-deriving the whole
// model from scratch.

// DeltaOpKind names one mutation in a Delta.
type DeltaOpKind string

// The delta operation kinds, matching the Network mutation API.
const (
	OpAddHost            DeltaOpKind = "add_host"
	OpRemoveHost         DeltaOpKind = "remove_host"
	OpAddEdge            DeltaOpKind = "add_edge"
	OpRemoveEdge         DeltaOpKind = "remove_edge"
	OpUpdateHostServices DeltaOpKind = "update_services"
)

// DeltaOp is one recorded mutation.  Exactly the fields required by its kind
// are populated:
//
//	add_host:        Host
//	remove_host:     ID
//	add_edge:        A, B
//	remove_edge:     A, B
//	update_services: ID, Services, Choices, Preference
type DeltaOp struct {
	Op DeltaOpKind `json:"op"`
	// Host carries the full host description for add_host.
	Host *HostSpec `json:"host,omitempty"`
	// ID identifies the target host of remove_host / update_services.
	ID HostID `json:"id,omitempty"`
	// A and B are the edge endpoints of add_edge / remove_edge.
	A HostID `json:"a,omitempty"`
	B HostID `json:"b,omitempty"`
	// Services/Choices/Preference are the replacement service set of
	// update_services.
	Services   []ServiceID                         `json:"services,omitempty"`
	Choices    map[ServiceID][]ProductID           `json:"choices,omitempty"`
	Preference map[ServiceID]map[ProductID]float64 `json:"preference,omitempty"`
}

// Validate checks that the op carries the fields its kind requires.
func (op DeltaOp) Validate() error {
	switch op.Op {
	case OpAddHost:
		if op.Host == nil || op.Host.ID == "" {
			return errors.New("netmodel: add_host op needs a host with an ID")
		}
	case OpRemoveHost:
		if op.ID == "" {
			return errors.New("netmodel: remove_host op needs an id")
		}
	case OpAddEdge, OpRemoveEdge:
		if op.A == "" || op.B == "" {
			return fmt.Errorf("netmodel: %s op needs both endpoints", op.Op)
		}
	case OpUpdateHostServices:
		if op.ID == "" {
			return errors.New("netmodel: update_services op needs an id")
		}
		if len(op.Services) == 0 {
			return errors.New("netmodel: update_services op needs a non-empty service list")
		}
	default:
		return fmt.Errorf("netmodel: unknown delta op %q", op.Op)
	}
	return nil
}

// Delta is an ordered journal of network mutations.
type Delta struct {
	Ops []DeltaOp `json:"ops"`
}

// Empty reports whether the delta records no mutations.
func (d Delta) Empty() bool { return len(d.Ops) == 0 }

// Validate checks every op.
func (d Delta) Validate() error {
	for i, op := range d.Ops {
		if err := op.Validate(); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return nil
}

// Check validates that the delta would replay cleanly against the network
// without mutating anything — the all-or-nothing precondition a serving
// layer needs before handing the delta to a live optimiser (Apply stops at
// the first failing op with the prefix applied).  It mirrors Apply's error
// conditions exactly: duplicate or unknown hosts, invalid service sets and
// self-links fail; re-adding an existing link or removing a missing one is
// a no-op.  Host existence is tracked through an overlay so intra-delta
// dependencies (an op referencing a host added or removed earlier in the
// same delta) validate correctly, in O(ops) regardless of network size.
func (d Delta) Check(n *Network) error {
	return NewBatchChecker(n).Check(d)
}

// BatchChecker validates a sequence of deltas against a network plus the
// accumulated effect of the deltas already accepted through it, without
// mutating the network.  It is the batch form of Delta.Check: a serving
// layer coalescing queued deltas into one apply/re-solve cycle validates
// each delta against the state it would see if the earlier deltas of the
// batch had landed, preserving the per-delta all-or-nothing contract — a
// delta that fails Check leaves the checker's overlay exactly as it was, so
// later deltas validate as if the rejected one never existed.
//
// The overlay tracks host existence only, which is the complete mutable
// state Apply's error conditions depend on: edge re-adds and missing-edge
// removes are no-ops, and service-set validation is self-contained.
type BatchChecker struct {
	n *Network
	// overlay records host-existence changes made by accepted deltas;
	// hosts not present fall through to the network.
	overlay map[HostID]bool
	// staged holds the current delta's tentative changes, merged into
	// overlay only when the whole delta validates.  Kept across calls so a
	// long batch reuses one allocation.
	staged map[HostID]bool
}

// NewBatchChecker starts a validation batch against the network's current
// state.  The checker holds no reference-independent snapshot: callers must
// not mutate the network between Check calls of one batch other than by
// applying the accepted deltas in order.
func NewBatchChecker(n *Network) *BatchChecker {
	return &BatchChecker{
		n:       n,
		overlay: make(map[HostID]bool),
		staged:  make(map[HostID]bool),
	}
}

// exists resolves a host ID through staged, then overlay, then the network.
func (b *BatchChecker) exists(id HostID) bool {
	if v, ok := b.staged[id]; ok {
		return v
	}
	if v, ok := b.overlay[id]; ok {
		return v
	}
	_, ok := b.n.hosts[id]
	return ok
}

// Check validates the next delta of the batch.  On success the delta's
// host-existence effects are committed to the checker, so subsequent deltas
// see them; on failure the checker is left untouched.
func (b *BatchChecker) Check(d Delta) error {
	clear(b.staged)
	for i, op := range d.Ops {
		fail := func(err error) error {
			return fmt.Errorf("netmodel: delta op %d (%s): %w", i, op.Op, err)
		}
		if err := op.Validate(); err != nil {
			return fail(err)
		}
		switch op.Op {
		case OpAddHost:
			if b.exists(op.Host.ID) {
				return fail(fmt.Errorf("%w: %q", ErrDuplicateHost, op.Host.ID))
			}
			if err := validateServiceSet(op.Host.ID, op.Host.Services, op.Host.Choices); err != nil {
				return fail(err)
			}
			b.staged[op.Host.ID] = true
		case OpRemoveHost:
			if !b.exists(op.ID) {
				return fail(fmt.Errorf("%w: %q", ErrUnknownHost, op.ID))
			}
			b.staged[op.ID] = false
		case OpAddEdge, OpRemoveEdge:
			if op.Op == OpAddEdge && op.A == op.B {
				return fail(fmt.Errorf("%w: %q", ErrSelfLink, op.A))
			}
			for _, id := range [2]HostID{op.A, op.B} {
				if !b.exists(id) {
					return fail(fmt.Errorf("%w: %q", ErrUnknownHost, id))
				}
			}
		case OpUpdateHostServices:
			if !b.exists(op.ID) {
				return fail(fmt.Errorf("%w: %q", ErrUnknownHost, op.ID))
			}
			if err := validateServiceSet(op.ID, op.Services, op.Choices); err != nil {
				return fail(err)
			}
		}
	}
	for id, v := range b.staged {
		b.overlay[id] = v
	}
	return nil
}

// Apply replays the delta against a network through the mutation API.  Ops
// are applied in order; the first failing op aborts the replay (earlier ops
// stay applied, mirroring the journal semantics of a partially consumed
// stream).
func (d Delta) Apply(n *Network) error {
	for i, op := range d.Ops {
		if err := applyOp(n, op); err != nil {
			return fmt.Errorf("netmodel: delta op %d (%s): %w", i, op.Op, err)
		}
	}
	return nil
}

func applyOp(n *Network, op DeltaOp) error {
	if err := op.Validate(); err != nil {
		return err
	}
	switch op.Op {
	case OpAddHost:
		return n.AddHost(op.Host.Host())
	case OpRemoveHost:
		return n.RemoveHost(op.ID)
	case OpAddEdge:
		return n.AddEdge(op.A, op.B)
	case OpRemoveEdge:
		return n.RemoveEdge(op.A, op.B)
	case OpUpdateHostServices:
		return n.UpdateHostServices(op.ID, op.Services, op.Choices, op.Preference)
	}
	return fmt.Errorf("netmodel: unknown delta op %q", op.Op)
}

// EncodeDeltas writes deltas as JSON lines (one compact Delta object per
// line), the stream format NewDeltaDecoder reads.
func EncodeDeltas(w io.Writer, deltas []Delta) error {
	enc := json.NewEncoder(w)
	for i, d := range deltas {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("netmodel: delta %d: %w", i, err)
		}
		if err := enc.Encode(d); err != nil {
			return fmt.Errorf("netmodel: encode delta %d: %w", i, err)
		}
	}
	return nil
}

// DeltaLimits bounds the size of a delta decoded from an untrusted source
// (the divd delta endpoint).  A zero field means "unlimited", mirroring
// SpecLimits.
type DeltaLimits struct {
	// MaxOps bounds the operation count of one delta.
	MaxOps int
	// Host bounds the shape of hosts carried by add_host / update_services
	// ops (only the per-host fields of SpecLimits apply).
	Host SpecLimits
}

// CheckLimits verifies the delta against the limits, returning the first
// violation.  Like Spec.CheckLimits it is a pure size check; Validate covers
// the structural requirements of each op kind.
func (d Delta) CheckLimits(l DeltaLimits) error {
	if l.MaxOps > 0 && len(d.Ops) > l.MaxOps {
		return fmt.Errorf("netmodel: delta has %d ops, limit %d", len(d.Ops), l.MaxOps)
	}
	for i, op := range d.Ops {
		switch op.Op {
		case OpAddHost:
			if op.Host != nil {
				if err := l.Host.hostShapeWithinLimits(op.Host); err != nil {
					return fmt.Errorf("op %d: %w", i, err)
				}
			}
		case OpUpdateHostServices:
			shape := HostSpec{ID: op.ID, Services: op.Services, Choices: op.Choices}
			if err := l.Host.hostShapeWithinLimits(&shape); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	return nil
}

// DeltaDecoder streams deltas from a JSON-lines (or concatenated-JSON)
// reader.
type DeltaDecoder struct {
	dec *json.Decoder
}

// NewDeltaDecoder wraps a reader producing a stream of Delta JSON objects.
func NewDeltaDecoder(r io.Reader) *DeltaDecoder {
	return &DeltaDecoder{dec: json.NewDecoder(r)}
}

// Strict makes the decoder reject deltas carrying unknown JSON fields, the
// posture for untrusted input (unknown fields are a caller bug or a probe,
// never valid data).  It returns the decoder for chaining.
func (d *DeltaDecoder) Strict() *DeltaDecoder {
	d.dec.DisallowUnknownFields()
	return d
}

// Next decodes and validates the next delta.  It returns io.EOF at the end
// of the stream.
func (d *DeltaDecoder) Next() (Delta, error) {
	var out Delta
	if err := d.dec.Decode(&out); err != nil {
		if errors.Is(err, io.EOF) {
			return Delta{}, io.EOF
		}
		return Delta{}, fmt.Errorf("netmodel: decode delta: %w", err)
	}
	if err := out.Validate(); err != nil {
		return Delta{}, fmt.Errorf("netmodel: %w", err)
	}
	return out, nil
}

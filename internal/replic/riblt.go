// Package replic is the replication plane of the serving daemon: a primary
// divd streams committed WAL records per session to follower nodes, and a
// background anti-entropy loop reconciles divergence (missed pushes, follower
// restarts, healed partitions) with rateless set reconciliation, so a
// follower converges by fetching exactly the records it is missing — cost
// proportional to the difference, not the log.
//
// The plane has three moving parts:
//
//   - Primary: receives the serving plane's replication hooks (session
//     created / record committed / session deleted), retains a bounded
//     in-memory history of encoded records per session, pushes committed
//     records to attached followers, and serves the pull protocol (session
//     listing, coded symbols, record fetch, full snapshots).
//   - Follower: applies pushed and fetched records through the serving
//     plane's deterministic patch-replay path (never re-solving), buffers
//     out-of-order arrivals, and runs the anti-entropy loop.
//   - The riblt sketch in this file: rateless coded symbols over a session's
//     record-version set, the mechanism that finds the difference in O(diff)
//     communication.
//
// Everything record-sized crosses the wire as length-prefixed, CRC32C-checked
// frames (wal.AppendFrame / wal.ScanFrames) — the same framing, and the same
// torn/corrupt detection, the on-disk log already trusts.  See
// docs/REPLICATION.md for roles, the ack-vs-replication contract and the
// promotion runbook.
package replic

import (
	"math"

	"netdiversity/internal/netmodel"
)

// CodedSymbol is one cell of a rateless IBLT sketch over a set of uint64
// record versions.  Count carries the signed number of items folded into the
// cell, IDSum the XOR of the items and HashSum the XOR of their Mix64 hashes.
// A cell of a *difference* sketch (remote minus local) with Count = ±1 whose
// HashSum matches the hash of its IDSum holds exactly one item of the
// symmetric difference — the peeling decoder's handle.
type CodedSymbol struct {
	Count   int64  `json:"c"`
	IDSum   uint64 `json:"i"`
	HashSum uint64 `json:"h"`
}

// mapping enumerates the pseudo-random, increasingly sparse sequence of cell
// indices one item occupies: index 0 always (every item is folded into cell
// 0), then jumps whose expected spacing grows quadratically, so the first m
// cells receive roughly m·(1 + ln(n/m) · O(1)) item mappings in total and a
// prefix of the symbol stream behaves like an IBLT sized for the decoded
// difference.  The jump recurrence is the riblt construction: with r uniform
// in [0, 2^64), lastIdx advances by ceil((lastIdx + 1.5)·((2^32)/sqrt(r+1) −
// 1)), whose expectation multiplies the index by a constant factor per step.
type mapping struct {
	prng    uint64
	lastIdx uint64
}

// newMapping seeds an item's index sequence from its Mix64 hash.
func newMapping(item uint64) mapping {
	seed := netmodel.Mix64(item)
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return mapping{prng: seed}
}

// next returns the item's next cell index after lastIdx.  The increment is
// clamped to at least 1, so the sequence is strictly increasing and every
// loop over it terminates.
func (m *mapping) next() uint64 {
	r := m.prng * 0xda942042e4dd58b5
	m.prng = r
	inc := uint64(math.Ceil((float64(m.lastIdx) + 1.5) * ((1<<32)/math.Sqrt(float64(r)+1) - 1)))
	if inc == 0 {
		inc = 1
	}
	m.lastIdx += inc
	return m.lastIdx
}

// fold adds (sign = +1) or removes (sign = -1) one item to every cell of the
// sketch prefix it maps into.
func fold(cells []CodedSymbol, item uint64, sign int64) {
	h := netmodel.Mix64(item)
	m := newMapping(item)
	for idx := uint64(0); idx < uint64(len(cells)); idx = m.next() {
		cells[idx].Count += sign
		cells[idx].IDSum ^= item
		cells[idx].HashSum ^= h
	}
}

// EncodeSymbols returns the first n coded symbols of the set.  The symbol
// stream is rateless: the first k symbols of EncodeSymbols(set, n) equal
// EncodeSymbols(set, k) for every k ≤ n, so a peer that failed to decode a
// prefix extends it instead of starting over.
func EncodeSymbols(set []uint64, n int) []CodedSymbol {
	cells := make([]CodedSymbol, n)
	for _, v := range set {
		fold(cells, v, 1)
	}
	return cells
}

// Reconcile peels the symmetric difference between a remote set, given as a
// prefix of its coded-symbol stream, and the local set, given explicitly.
// On success (ok = true) remoteOnly holds the items only the remote has and
// localOnly the items only we have.  ok = false means the prefix was too
// short for the difference — fetch more symbols and retry.  The peel loop is
// bounded, so adversarial symbol streams terminate like honest ones; they
// simply fail to reach the all-zero sketch and return ok = false.
func Reconcile(remote []CodedSymbol, local []uint64) (remoteOnly, localOnly []uint64, ok bool) {
	diff := make([]CodedSymbol, len(remote))
	copy(diff, remote)
	for _, v := range local {
		fold(diff, v, -1)
	}
	// Peel: a pure cell (count ±1, hash consistent) yields one difference
	// item; removing it from its other cells can make them pure in turn.
	// Each genuine peel removes one item, so honest streams finish within
	// |difference| peels; the cap only cuts adversarial garbage short.
	maxPeels := 2*len(diff) + 16
	peels := 0
	for progress := true; progress && peels < maxPeels; {
		progress = false
		for i := range diff {
			c := diff[i]
			if (c.Count != 1 && c.Count != -1) || c.HashSum != netmodel.Mix64(c.IDSum) || (c.IDSum == 0 && c.HashSum == 0) {
				continue
			}
			item := c.IDSum
			if c.Count == 1 {
				remoteOnly = append(remoteOnly, item)
			} else {
				localOnly = append(localOnly, item)
			}
			fold(diff, item, -c.Count)
			progress = true
			if peels++; peels >= maxPeels {
				break
			}
		}
	}
	for _, c := range diff {
		if c.Count != 0 || c.IDSum != 0 || c.HashSum != 0 {
			return nil, nil, false
		}
	}
	return remoteOnly, localOnly, true
}

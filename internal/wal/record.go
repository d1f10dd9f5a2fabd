package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"netdiversity/internal/netmodel"
)

// Log records are length-prefixed, checksummed JSON frames:
//
//	[4B little-endian payload length][4B little-endian CRC32C][payload]
//
// The CRC covers the payload only; the length is implicitly validated by the
// CRC (a corrupted length either exceeds MaxRecordBytes or frames the wrong
// bytes, failing the checksum).  CRC32C (Castagnoli) is the conventional
// storage checksum — hardware-accelerated on amd64/arm64 via Go's crc32.
const frameHeaderSize = 8

// MaxRecordBytes bounds a single record's payload.  A frame whose declared
// length exceeds it is treated as corruption, so a flipped bit in the length
// field cannot make recovery attempt a multi-gigabyte allocation.
const MaxRecordBytes = 32 << 20

// ErrTorn marks a frame cut short by a crash: the tail of the file ends
// mid-header or mid-payload.  A torn final record is the expected signature
// of a crash during append and is silently dropped by recovery.
var ErrTorn = errors.New("wal: torn record")

// ErrCorrupt marks a frame whose bytes are present but wrong: checksum
// mismatch or an absurd declared length.  Like a torn frame it ends replay of
// its segment only — it may sit in a stale tail an earlier recovery already
// rotated past, so later segments are still offered to the PrevVersion chain
// check — and the state accumulated so far is kept.
var ErrCorrupt = errors.New("wal: corrupt record")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends payload to dst as one length-prefixed, CRC32C-checked
// frame and returns the result.  It is the on-disk log framing and, through
// internal/replic, the wire framing too, so records and snapshots in flight
// get the same torn/corrupt detection the recovery path already trusts.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// readFrame reads one frame, returning its payload.  io.EOF means a clean
// end exactly at a frame boundary; ErrTorn means the input ends inside a
// frame; ErrCorrupt means the frame is complete but fails validation.
func readFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated header", ErrTorn)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length > MaxRecordBytes {
		return nil, fmt.Errorf("%w: declared length %d exceeds limit", ErrCorrupt, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated payload", ErrTorn)
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// ScanFrames is the one frame-stream loop: it hands each payload of r to fn
// until the stream ends cleanly at a frame boundary (nil).  A torn or corrupt
// frame, an fn error, or more than limit frames stops the scan and is
// returned; what a bad frame means is the caller's call — segment replay
// treats it as the end of that segment, a replication stream as a failed
// transfer.
func ScanFrames(r io.Reader, limit int, fn func(payload []byte) error) error {
	br := bufio.NewReader(r)
	for n := 0; ; n++ {
		payload, err := readFrame(br)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if n >= limit {
			return fmt.Errorf("wal: framed stream exceeds %d frames", limit)
		}
		if err := fn(payload); err != nil {
			return err
		}
	}
}

// Record is one durable unit of the per-session log: the accepted delta
// batch of a single ApplyDeltaBatch plus the resulting published state.  The
// assignment is journaled as a host-level diff against the previous record
// (netmodel.Assignment.DiffHosts), so replay folds records forward with
// Patch and ApplyDeltas instead of re-running the solver — recovery is deterministic
// byte-replay, independent of solver seeds and iteration budgets.
type Record struct {
	// PrevVersion/Version chain records: a record applies to state at
	// PrevVersion and produces Version.  Replay requires PrevVersion to
	// match the accumulated version exactly; a gap ends replay.
	PrevVersion uint64 `json:"prev_version"`
	Version     uint64 `json:"version"`

	// Deltas is the accepted batch, replayed against the network topology.
	Deltas []netmodel.Delta `json:"deltas,omitempty"`

	// Changed/Removed is the assignment patch produced by the post-batch
	// solve, in DiffHosts form.
	Changed map[netmodel.HostID]map[netmodel.ServiceID]netmodel.ProductID `json:"changed,omitempty"`
	Removed []netmodel.HostID                                             `json:"removed,omitempty"`

	// Energy and Hash are the published energy and assignment fingerprint
	// after the patch.  Recovery recomputes the hash over replayed state and
	// rejects the record on mismatch — the end-to-end integrity check on top
	// of the per-frame CRC.
	Energy float64 `json:"energy"`
	Hash   string  `json:"hash"`
}

// validate rejects records that could never have been produced by the serve
// plane, before they reach the log.
func (r *Record) validate() error {
	if r.Version <= r.PrevVersion {
		return fmt.Errorf("wal: record version %d not after prev %d", r.Version, r.PrevVersion)
	}
	if r.Hash == "" {
		return errors.New("wal: record missing assignment hash")
	}
	return nil
}

// Patch derives the assignment the record produces from the one it applies to
// (netmodel.Assignment.With: a is not modified and shares every untouched host
// with the result) and verifies the result against the journaled hash — the
// end-to-end check every replay path (boot recovery, replica apply) runs before
// trusting a record.  On a mismatch nothing is returned and a still is the last
// verified state.
func (r *Record) Patch(a *netmodel.Assignment) (*netmodel.Assignment, error) {
	next := a.With(r.Changed, r.Removed)
	if got := next.Hash(); got != r.Hash {
		return nil, fmt.Errorf("wal: record %d replayed hash %s != journaled %s", r.Version, got, r.Hash)
	}
	return next, nil
}

// ApplyDeltas replays the record's accepted delta batch against net.  A
// failure leaves net holding a prefix of the batch.
func (r *Record) ApplyDeltas(net *netmodel.Network) error {
	for i, d := range r.Deltas {
		if err := d.Apply(net); err != nil {
			return fmt.Errorf("wal: record %d delta %d: %w", r.Version, i, err)
		}
	}
	return nil
}

// Encode validates the record and returns its canonical JSON payload — the
// bytes a frame carries, identical on disk and on the replication wire.
func (r *Record) Encode() ([]byte, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("wal: encode record: %w", err)
	}
	if len(payload) > MaxRecordBytes {
		return nil, fmt.Errorf("wal: record payload %d bytes exceeds limit", len(payload))
	}
	return payload, nil
}

// DecodeRecord decodes a frame payload back into a Record.  Malformed JSON
// is reported as ErrCorrupt, mirroring the recovery path; the decoded record
// is additionally validated so a syntactically clean but impossible record
// (version not after prev, missing hash) never enters an apply path.
func DecodeRecord(payload []byte) (*Record, error) {
	rec, err := decodeRecord(payload)
	if err != nil {
		return nil, err
	}
	if err := rec.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return rec, nil
}

func decodeRecord(payload []byte) (*Record, error) {
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &r, nil
}

package wal

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReadFrame guards the record framing against arbitrary on-disk bytes:
// whatever a damaged segment holds, the reader must never panic or
// over-allocate, and its three-way verdict (clean EOF / torn / corrupt) must
// be stable — in particular a frame that round-trips must come back intact,
// and any bit flip inside it must read as corruption, never as data.
func FuzzReadFrame(f *testing.F) {
	whole := AppendFrame(nil, []byte(`{"prev_version":1,"version":2,"hash":"ab"}`))
	f.Add(whole)
	f.Add(whole[:len(whole)-4])            // torn payload
	f.Add(whole[:frameHeaderSize-2])       // torn header
	f.Add(AppendFrame(whole, []byte(`x`))) // two frames
	flipped := append([]byte(nil), whole...)
	flipped[frameHeaderSize+3] ^= 0x08 // bit-flipped payload => CRC mismatch
	f.Add(flipped)
	badlen := append([]byte(nil), whole...)
	badlen[3] = 0xff // absurd declared length
	f.Add(badlen)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		frames := 0
		for {
			payload, err := readFrame(r)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("unclassified frame error: %v", err)
				}
				break
			}
			frames++
			if len(payload) > MaxRecordBytes {
				t.Fatalf("frame payload of %d bytes exceeds the record bound", len(payload))
			}
			// A frame that read back must re-frame to the identical bytes.
			if rt := AppendFrame(nil, payload); len(rt) != frameHeaderSize+len(payload) {
				t.Fatalf("re-framed length %d for %d payload bytes", len(rt), len(payload))
			}
			if frames > 1<<16 {
				t.Fatal("implausible frame count")
			}
		}
	})
}

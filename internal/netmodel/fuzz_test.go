package netmodel

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// FuzzDeltaRoundTrip guards the delta serialisation surface that divd's
// delta endpoint depends on: any delta that decodes and validates must
// survive an encode/decode round trip unchanged.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add([]byte(`{"ops":[{"op":"add_edge","a":"h1","b":"h2"}]}`))
	f.Add([]byte(`{"ops":[{"op":"remove_host","id":"h1"}]}`))
	f.Add([]byte(`{"ops":[{"op":"add_host","host":{"id":"x","services":["os"],"choices":{"os":["p1"]}}}]}`))
	f.Add([]byte(`{"ops":[{"op":"update_services","id":"h1","services":["os"],"choices":{"os":["p1","p2"]},"preference":{"os":{"p1":0.5}}}]}`))
	f.Add([]byte(`{"ops":[]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Delta
		if err := json.Unmarshal(data, &d); err != nil {
			return // malformed input: rejection is the correct behaviour
		}
		if err := d.Validate(); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeDeltas(&buf, []Delta{d}); err != nil {
			t.Fatalf("valid delta failed to encode: %v", err)
		}
		got, err := NewDeltaDecoder(bytes.NewReader(buf.Bytes())).Next()
		if err != nil {
			t.Fatalf("re-decode of encoded delta failed: %v", err)
		}
		a, _ := json.Marshal(d)
		b, _ := json.Marshal(got)
		if !bytes.Equal(a, b) {
			t.Fatalf("round trip changed the delta:\n in: %s\nout: %s", a, b)
		}
		if _, err := NewDeltaDecoder(bytes.NewReader(buf.Bytes())).Next(); err == io.EOF {
			t.Fatal("decoder returned EOF for a non-empty stream")
		}
	})
}

// FuzzDeltaStream guards the streaming decode loop against damaged tails:
// whatever bytes arrive, the decoder must never panic, and it must never
// report a clean io.EOF when the stream ends inside a delta object — a
// truncated tail (the on-disk signature of a crash mid-write) has to be
// distinguishable from a complete stream, or a replayer would silently
// treat half a delta as "done".
func FuzzDeltaStream(f *testing.F) {
	valid := []byte(`{"ops":[{"op":"add_edge","a":"h1","b":"h2"}]}` + "\n" +
		`{"ops":[{"op":"remove_host","id":"h1"}]}` + "\n")
	f.Add(valid)
	// Truncated tails: the second object cut mid-value, mid-string, mid-key.
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:len(valid)-12])
	f.Add(valid[:bytes.LastIndex(valid, []byte(`"op"`))+2])
	// Bit-flipped copies of a valid stream (structure or content damage).
	for _, i := range []int{1, 9, 20, len(valid) - 5} {
		bad := append([]byte(nil), valid...)
		bad[i] ^= 0x20
		f.Add(bad)
	}
	f.Add([]byte(`{"ops":[]}` + "\n" + `garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDeltaDecoder(bytes.NewReader(data))
		var decoded []Delta
		var streamErr error
		for {
			d, err := dec.Next()
			if err != nil {
				streamErr = err
				break
			}
			decoded = append(decoded, d)
			if len(decoded) > 1<<16 {
				t.Fatal("decoder produced an implausible number of deltas")
			}
		}
		if streamErr == io.EOF {
			// A clean EOF promises the stream was whole: every decoded delta
			// must re-encode, and the re-encoded stream must decode to the
			// same count — the round trip a WAL-style replayer relies on.
			var buf bytes.Buffer
			if err := EncodeDeltas(&buf, decoded); err != nil {
				t.Fatalf("cleanly-decoded deltas failed to re-encode: %v", err)
			}
			re := NewDeltaDecoder(bytes.NewReader(buf.Bytes()))
			for i := range decoded {
				if _, err := re.Next(); err != nil {
					t.Fatalf("re-decode stopped at %d/%d: %v", i, len(decoded), err)
				}
			}
			if _, err := re.Next(); err != io.EOF {
				t.Fatalf("re-decoded stream did not end cleanly: %v", err)
			}
		}
	})
}

// TestDeltaDecoderTruncatedTail pins the clean-EOF vs corruption contract
// directly: a stream cut anywhere inside its final object must surface a
// non-EOF error, and every complete prefix boundary must end with io.EOF.
func TestDeltaDecoderTruncatedTail(t *testing.T) {
	stream := []byte(`{"ops":[{"op":"add_edge","a":"h1","b":"h2"}]}` + "\n" +
		`{"ops":[{"op":"update_services","id":"h2","services":["os"],"choices":{"os":["p1"]}}]}` + "\n")
	drain := func(data []byte) (int, error) {
		dec := NewDeltaDecoder(bytes.NewReader(data))
		n := 0
		for {
			if _, err := dec.Next(); err != nil {
				return n, err
			}
			n++
		}
	}
	if n, err := drain(stream); n != 2 || err != io.EOF {
		t.Fatalf("whole stream: %d deltas, %v", n, err)
	}
	firstEnd := bytes.IndexByte(stream, '\n') + 1
	if n, err := drain(stream[:firstEnd]); n != 1 || err != io.EOF {
		t.Fatalf("one-object prefix: %d deltas, %v", n, err)
	}
	// Every cut inside the second object is a truncation, never clean EOF.
	for cut := firstEnd + 1; cut < len(stream)-1; cut++ {
		n, err := drain(stream[:cut])
		if err == io.EOF {
			t.Fatalf("cut at %d: truncated tail reported clean EOF after %d deltas", cut, n)
		}
	}
	// A flipped bit inside a structural byte is corruption, not EOF.
	bad := append([]byte(nil), stream...)
	bad[0] ^= 0x40
	if _, err := drain(bad); err == nil || err == io.EOF {
		t.Fatalf("bit-flipped stream: %v", err)
	}
}

// FuzzSpecRoundTrip covers the network spec surface `div -in` and divd's
// create endpoint load a network from.
func FuzzSpecRoundTrip(f *testing.F) {
	f.Add([]byte(`{"hosts":[{"id":"a","services":["os"],"choices":{"os":["p1"]}}],"links":[]}`))
	f.Add([]byte(`{"hosts":[{"id":"a","services":["os"],"choices":{"os":["p1"]}},{"id":"b","services":["os"],"choices":{"os":["p1","p2"]}}],"links":[{"a":"a","b":"b"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		net, cs, err := ReadSpec(bytes.NewReader(data))
		if err != nil {
			return // malformed specs must error, not panic
		}
		var buf bytes.Buffer
		if err := WriteSpec(&buf, net, cs); err != nil {
			t.Fatalf("valid network failed to encode: %v", err)
		}
		net2, _, err := ReadSpec(&buf)
		if err != nil {
			t.Fatalf("re-decode of encoded spec failed: %v", err)
		}
		if net.NumHosts() != net2.NumHosts() || net.NumLinks() != net2.NumLinks() {
			t.Fatalf("round trip changed the network: %d/%d hosts, %d/%d links",
				net.NumHosts(), net2.NumHosts(), net.NumLinks(), net2.NumLinks())
		}
	})
}

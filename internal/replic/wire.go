package replic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"netdiversity/internal/wal"
)

// Wire protocol.  Control messages (session listing, symbol and record
// requests, attach) are plain JSON bodies; everything that carries records or
// snapshots — the push stream and the record/snapshot fetch responses — is a
// sequence of length-prefixed, CRC32C-checked frames in the WAL's on-disk
// framing (wal.AppendFrame / wal.ScanFrames), so a truncated response or a
// flipped bit is detected exactly like a torn or corrupt log record, before
// any payload reaches an apply path.

// Endpoint paths.  The primary's pull surface plus the follower's push sink;
// cmd/divd mounts them next to the v1 API.
const (
	PathSessions = "/v1/replic/sessions"
	PathSymbols  = "/v1/replic/symbols"
	PathRecords  = "/v1/replic/records"
	PathSnapshot = "/v1/replic/snapshot"
	PathAttach   = "/v1/replic/attach"
	PathIngest   = "/v1/replic/ingest"
)

// maxStreamFrames bounds the number of frames one request or response stream
// may carry, so a malicious or corrupt stream cannot spin a reader.
const maxStreamFrames = 65536

// maxSymbolCount bounds one symbol request; the adaptive loop's doubling
// never reasonably exceeds it (a difference that large falls back to a full
// snapshot first).
const maxSymbolCount = 1 << 16

// SessionState is one row of the primary's session listing: the published
// tip every follower compares its replica against.  Matching version and
// hash is the zero-diff fast path — the whole anti-entropy round for an
// in-sync session is this one listing entry.
type SessionState struct {
	ID      string `json:"id"`
	Version uint64 `json:"version"`
	Hash    string `json:"hash"`
}

// sessionsResponse is the body of GET PathSessions.
type sessionsResponse struct {
	Sessions []SessionState `json:"sessions"`
}

// symbolsRequest asks the primary for the first Count coded symbols over its
// record-version set above Floor (the follower's contiguously applied
// version) for one session.
type symbolsRequest struct {
	ID    string `json:"id"`
	Floor uint64 `json:"floor"`
	Count int    `json:"count"`
}

// symbolsResponse carries the requested sketch prefix.  Digest is the
// primary's record-set digest above Floor; after decoding, the follower
// verifies its reconstructed target set against it, an end-to-end check that
// the rateless decode was complete.  SnapshotNeeded means the primary has
// compacted records the follower would need — fall back to a full snapshot.
type symbolsResponse struct {
	ID             string        `json:"id"`
	Floor          uint64        `json:"floor"`
	Tip            uint64        `json:"tip"`
	Digest         uint64        `json:"digest"`
	SnapshotNeeded bool          `json:"snapshot_needed,omitempty"`
	Symbols        []CodedSymbol `json:"symbols,omitempty"`
}

// recordsRequest asks the primary for specific record versions of a session;
// the response is a framed stream of record payloads.
type recordsRequest struct {
	ID       string   `json:"id"`
	Versions []uint64 `json:"versions"`
}

// attachRequest registers a follower's ingest URL with the primary for push
// replication.  Idempotent; followers re-attach every anti-entropy round so
// a restarted primary re-learns its followers.
type attachRequest struct {
	URL string `json:"url"`
}

// Push envelope kinds.
const (
	kindSnapshot = "snapshot"
	kindRecord   = "record"
	kindDelete   = "delete"
)

// pushEnvelope is one event of the push stream: a committed record, a full
// session snapshot (session created, or a follower attached late), or a
// session deletion.
type pushEnvelope struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	Record   json.RawMessage `json:"record,omitempty"`
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
}

// appendEnvelopeFrame marshals one push envelope and appends it to dst as a
// frame.
func appendEnvelopeFrame(dst []byte, env *pushEnvelope) ([]byte, error) {
	payload, err := json.Marshal(env)
	if err != nil {
		return dst, fmt.Errorf("replic: encode push envelope: %w", err)
	}
	return wal.AppendFrame(dst, payload), nil
}

// writeWireError writes the protocol's JSON error body.
func writeWireError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// writeWireJSON writes a JSON control response.
func writeWireJSON(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(body)
}

// decodeWireJSON decodes a bounded JSON control body.
func decodeWireJSON(r *http.Request, into any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("replic: decode request: %w", err)
	}
	return nil
}

// postJSON issues a JSON POST and decodes a JSON response into out (when out
// is non-nil).  Non-2xx statuses are returned as errors carrying the body's
// error message when present.
func postJSON(client *http.Client, url string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		return wireStatusError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(out)
}

// wireStatusError turns a non-2xx protocol response into an error.
func wireStatusError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	msg := ""
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&body); err == nil {
		msg = body.Error
	}
	if msg == "" {
		return fmt.Errorf("replic: %s returned %d", resp.Request.URL.Path, resp.StatusCode)
	}
	return fmt.Errorf("replic: %s returned %d: %s", resp.Request.URL.Path, resp.StatusCode, msg)
}

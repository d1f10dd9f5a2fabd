package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call at a layer boundary.  Spans of one op share its
// id; Parent names the span that covers this one in the request path
// (http → serve.handler → library call), so a layer's self time is its span
// minus the spans naming it as parent.  The three replicas of a traced op
// run one after the other, so nesting is by Parent, not by the clock.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps every span in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// time runs fn as the span (op, name) under parent and returns its duration.
func (r *recorder) time(op int, name, parent string, fn func()) time.Duration {
	start := time.Since(r.t0)
	fn()
	end := time.Since(r.t0)
	r.spans = append(r.spans, span{Op: op, Name: name, Parent: parent, Start: int64(start), End: int64(end)})
	return end - start
}

// add records a span measured elsewhere (the load client times the root).
func (r *recorder) add(op int, name, parent string, start, d time.Duration) {
	r.spans = append(r.spans, span{Op: op, Name: name, Parent: parent, Start: int64(start), End: int64(start + d)})
}

// durations returns the durations of every span called name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// p50 is the median duration in ms of the spans called name (0 if none).
func (r *recorder) p50(name string) float64 { return ms(quantile(r.durations(name), 0.5)) }

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

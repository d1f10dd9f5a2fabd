package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The schedule is a pure function of (workload, seed): the op-sequence
// digest is pinned, a different seed gives different deltas, and every
// cycle holds exactly the workload's mix.
func TestMain(m *testing.M) {
	if err := startReference(); err != nil {
		panic(err)
	}
	code := m.Run()
	stopReference()
	os.Exit(code)
}

func TestScheduleDeterministicAndHonoursMix(t *testing.T) {
	w, _ := findWorkload("churn_large")
	w = w.shrunk()
	digest := func(seed int64) (uint64, [numOps]int) {
		tenants, err := buildTenants(w)
		if err != nil {
			t.Fatal(err)
		}
		s := newSchedule(w, tenants, seed)
		var counts [numOps]int
		for i := 0; i < 3*w.cycleLen(); i++ {
			o := s.next()
			if i < w.cycleLen() {
				counts[o.kind]++
			}
		}
		return s.digest, counts
	}
	d1, counts := digest(7)
	if counts != w.cycle {
		t.Errorf("one cycle issued %v, workload mix is %v", counts, w.cycle)
	}
	if d2, _ := digest(7); d2 != d1 {
		t.Errorf("same seed, digests %016x and %016x", d1, d2)
	}
	if d3, _ := digest(8); d3 == d1 {
		t.Errorf("seeds 7 and 8 share digest %016x", d1)
	}
	const pinned = 0x01c5b5c7c11a0887
	if d1 != pinned {
		t.Errorf("op-sequence digest %#016x, pinned %#016x: the schedule generator changed, so earlier results no longer compare", d1, uint64(pinned))
	}
}

func TestCyclePatternInterleaves(t *testing.T) {
	p := cyclePattern([numOps]int{opRead: 3, opDelta: 1})
	want := []opKind{opRead, opRead, opDelta, opRead}
	if len(p) != len(want) {
		t.Fatalf("pattern %v", p)
	}
	reads := 0
	for _, k := range p {
		if k == opRead {
			reads++
		}
	}
	if reads != 3 || p[len(p)-1] == opDelta && p[0] == opDelta {
		t.Errorf("pattern %v does not hold 3 reads and 1 delta", p)
	}
}

func TestReadClassAndHead(t *testing.T) {
	if readClass(0, 1) != latReadFresh || readClass(4, 5) != latReadFresh || readClass(5, 5) != latReadCached {
		t.Error("a read is cached exactly when it repeats the last version read")
	}
	h, err := parseReadHead([]byte(`{"id":"t0","version":12,"energy":1.5,"assignment_hash":"ab","assignment":{"h0":{"s1":"p"}}}`))
	if err != nil || h.Version != 12 || h.AssignmentHash != "ab" {
		t.Errorf("head %+v, %v", h, err)
	}
	if _, err := parseReadHead([]byte(`{"error":{}}`)); err == nil {
		t.Error("a body without an assignment must not parse as a read")
	}
}

func TestQuantileAndMedianRound(t *testing.T) {
	d := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	if got := quantile(d(5, 1, 3, 2, 4), 0.5); got != 3*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := quantile(d(10, 20), 0.9); got != 19*time.Millisecond {
		t.Errorf("p90 of {10,20} = %v, want 19ms by interpolation", got)
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty sample must give 0")
	}
	// Empty rounds contribute nothing to a pooled quantile.
	rs := []roundStats{{}, {}, {}, {}}
	rs[0].lat[latDelta] = d(2, 2, 2)
	rs[1].lat[latDelta] = d(3, 3, 3)
	rs[2].lat[latDelta] = d(90, 95, 99)
	if got := pooledLatency(rs, latDelta, 0.5); got != 3 {
		t.Errorf("pooled p50 = %v ms, want 3", got)
	}
	rs = []roundStats{{ops: 100, wall: time.Second}, {ops: 100, wall: 2 * time.Second}, {ops: 100, wall: 4 * time.Second}}
	if got := medianRound(rs, (*roundStats).throughput); got != 50 {
		t.Errorf("median round throughput = %v, want 50", got)
	}
}

// spread must agree with Python's statistics.quantiles(values, n=4).
func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 20})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSpeedFactorScalesTimes(t *testing.T) {
	slow := calibration{alu: 2 * aluNominal, mem: 2 * memNominal, ping: 2 * pingNominal}
	if f := slow.reading(); math.Abs(f-2) > 1e-12 {
		t.Errorf("a machine at half speed reads %v, want 2", f)
	}
	// One hiccup among the readings does not move the round's factor.
	c := calibrator{readings: []float64{1.0, 1.1, 0.9, 1.0, 7.5}}
	if f := c.factor(); f != 1.0 {
		t.Errorf("factor %v, want the median reading 1.0", f)
	}
	r := roundStats{ops: 2, rawWall: 10 * time.Millisecond}
	r.lat[latDelta] = []time.Duration{8 * time.Millisecond}
	r.scale(2, 6*time.Millisecond)
	if r.wall != 5*time.Millisecond || r.cpu != 3*time.Millisecond || r.lat[latDelta][0] != 4*time.Millisecond || r.rawWall != 10*time.Millisecond {
		t.Errorf("scaled round %+v", r)
	}
	var live calibrator
	live.run(0)
	if len(live.readings) != 1 || live.wall <= 0 || live.factor() <= 0 {
		t.Errorf("one calibration gave %+v", live)
	}
}

// BENCHMARK.json is generated from the catalogue, and respects the limits of
// the benchmark contract.
func TestManifestMatchesCatalogue(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, buildManifest()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run . -manifest > ../BENCHMARK.json` in benchmark/")
	}
	seen := map[string]bool{}
	name := func(n string) {
		if seen[n] || len(n) == 0 || len(n) > 64 {
			t.Errorf("name %q is duplicate or has a bad length", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 || len(m.Unit) > 16 {
			t.Errorf("%s: bound %v or unit %q outside the contract", m.Name, m.Bound, m.Unit)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is required")
	}
	for _, m := range perLayer {
		name(m.Name)
	}
	if n := len(workloads); n < 2 || n > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Error("catalogue outside the contract's counts")
	}
}

// The smoke run drives all four stacks, WAL restart and follower gates
// included, without a wall-clock assertion: every metric of the catalogue is
// emitted (and no other), the gates pass, and two runs of one seed end in
// the same per-tenant versions and hashes.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		cfg := runConfig{w: w.shrunk(), seed: 3, cyclesPerRound: 1, workDir: dir}
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed != 0 || len(res.gateErrs) != 0 {
			t.Errorf("%s: %d failed ops (%v), gates %v", w.name, res.failed, res.firstOpErr, res.gateErrs)
		}
		if len(res.metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics emitted, catalogue has %d", w.name, len(res.metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := res.metrics[m.Name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v (present %v), want > 0", w.name, m.Name, v, ok)
			}
		}
		again, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if again.finalDigest != res.finalDigest || again.schedDigest != res.schedDigest {
			t.Errorf("%s: same seed ended at state %s then %s", w.name, res.finalDigest, again.finalDigest)
		}

		rep, err := runTraced(cfg, filepath.Join(dir, "out"))
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !rep.Correct {
			t.Errorf("%s traced: %v", w.name, rep.notes)
		}
		if len(rep.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics emitted, catalogue has %d", w.name, len(rep.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if _, ok := rep.Metrics[m.Name]; !ok {
				t.Errorf("%s traced: %s missing", w.name, m.Name)
			}
		}
		checkSpans(t, filepath.Join(dir, "out", "trace-"+w.name+".jsonl"))
	}
}

// checkSpans parses a span file: every line is a span whose end is not
// before its start, every op has exactly one root, and every non-root span
// names a parent recorded for the same op (or the probe marker).
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byOp := map[int]map[string]bool{}
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.End < s.Start || s.Name == "" {
			t.Errorf("%s: bad span %+v", path, s)
		}
		if byOp[s.Op] == nil {
			byOp[s.Op] = map[string]bool{}
		}
		if s.Parent == "" && byOp[s.Op][""] {
			t.Errorf("%s: op %d has two roots", path, s.Op)
		}
		byOp[s.Op][s.Name] = true
		if s.Parent == "" {
			byOp[s.Op][""] = true
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Errorf("%s: no spans", path)
	}
	for _, s := range spans {
		if s.Parent != "" && s.Parent != probeParent && !byOp[s.Op][s.Parent] {
			t.Errorf("%s: span %s of op %d names parent %s, which op %d did not record", path, s.Name, s.Op, s.Parent, s.Op)
		}
	}
}

// The result line is one JSON object with exactly the contract's keys.
func TestResultLineShape(t *testing.T) {
	rep := &report{Correct: true, Attempted: 10, Metrics: map[string]metricValue{"setup_s": {Value: 0.5, Unit: "s"}}, workload: "w"}
	var buf bytes.Buffer
	rep.print(&buf)
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var got map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has keys %v, want exactly four", got)
	}
}

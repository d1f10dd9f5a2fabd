package slam

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// SchemaVersion identifies the divslam report layout.  Bump it on any
// incompatible change to Report, RunResult or OpStats; ReadFile rejects
// reports written by a different version.
//
// Version history: 1 initial layout; 2 added the per-run "mem" block
// (allocation/GC pressure of in-process runs); 3 added retry accounting
// (per-op "retries" counters and the retries/backoff config echo).
const SchemaVersion = 3

// Report is the machine-readable result of one divslam invocation: one
// RunResult per Vary value (a single run when Vary is empty).
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	GeneratedAt   string `json:"generated_at"`
	// Mode and Vary echo the load model and sweep axis of the invocation.
	Mode string      `json:"mode"`
	Vary string      `json:"vary,omitempty"`
	Runs []RunResult `json:"runs"`
}

// ConfigInfo is the normalised (defaults applied) configuration echo
// embedded in every RunResult, so a report is self-describing.
type ConfigInfo struct {
	URL            string  `json:"url,omitempty"`
	Mode           string  `json:"mode"`
	Tenants        int     `json:"tenants"`
	Hosts          int     `json:"hosts"`
	Degree         int     `json:"degree"`
	Services       int     `json:"services"`
	Solver         string  `json:"solver"`
	Seed           int64   `json:"seed"`
	Workers        int     `json:"workers"`
	Rate           float64 `json:"rate,omitempty"`
	WorkerRate     float64 `json:"worker_rate,omitempty"`
	DurS           float64 `json:"dur_s,omitempty"`
	Ops            int     `json:"ops,omitempty"`
	Mix            string  `json:"mix"`
	MaxIterations  int     `json:"max_iterations"`
	AssessRuns     int     `json:"assess_runs"`
	RequestTimeout float64 `json:"request_timeout_s"`
	Retries        int     `json:"retries,omitempty"`
	BackoffS       float64 `json:"backoff_s,omitempty"`
	ReplicaReads   bool    `json:"replica_reads,omitempty"`
}

// RunResult is the measurement of one sub-run.
type RunResult struct {
	Config ConfigInfo `json:"config"`
	// VaryValue is this sub-run's value of the swept field.
	VaryValue string `json:"vary_value,omitempty"`
	// SetupMS is the untimed setup phase: creating the tenant population.
	SetupMS float64 `json:"setup_ms"`
	// DurationS is the measured phase's wall-clock in seconds.
	DurationS float64 `json:"duration_s"`
	// OfferedRPS is the scheduled arrival rate (open loop only).
	OfferedRPS float64 `json:"offered_rps,omitempty"`
	// AchievedRPS is successful requests per second of measured wall-clock;
	// an achieved rate persistently below the offered rate is the open-loop
	// signature of saturation.
	AchievedRPS float64 `json:"achieved_rps"`
	// Total aggregates every operation; Ops breaks the same numbers down per
	// operation name (only operations with traffic appear).
	Total OpStats            `json:"total"`
	Ops   map[string]OpStats `json:"ops"`
	// Mem is the allocation/GC pressure of the measured phase, sampled from
	// runtime.MemStats.  Present only for in-process targets (URL empty),
	// where the server under load shares the driver's heap — a serve-path
	// allocation regression moves these numbers even when latency hides it.
	Mem *MemReport `json:"mem,omitempty"`
}

// MemReport is the heap accounting of one measured phase: the total bytes
// allocated while the clock ran, the same number amortised per completed
// request, and the garbage collector's activity in the window.  The sample
// covers the whole process — server and load workers — so absolute values
// include constant client-side bookkeeping; regressions in the serve path
// show up as growth against a baseline taken with the same config.
type MemReport struct {
	// AllocBytes is the TotalAlloc delta across the measured phase.
	AllocBytes uint64 `json:"alloc_bytes"`
	// AllocBytesPerOp is AllocBytes divided by completed requests.
	AllocBytesPerOp float64 `json:"alloc_bytes_per_op"`
	// GCCount is the number of GC cycles the phase triggered.
	GCCount uint32 `json:"gc_count"`
	// MaxPauseMS is the longest stop-the-world pause of those cycles in
	// milliseconds (the GC-induced tail-latency floor).
	MaxPauseMS float64 `json:"max_pause_ms"`
}

// OpStats is the accounting of one operation (or the run total): request
// and error counts, the error breakdown by backpressure class, and the
// latency distribution of the successful requests — exact mean and max plus
// log-bucketed quantiles that are invariant under the worker count.
type OpStats struct {
	// Count is the number of completed requests (successes plus errors);
	// OK is the successful subset the latency statistics cover.
	Count int64 `json:"count"`
	OK    int64 `json:"ok"`
	// Errors counts non-2xx and transport outcomes, broken down below:
	// Status429 session-limit rejections, Status503 drain rejections,
	// Status504 deadline hits, StatusOther any other unexpected status,
	// TransportErrors connection-level failures.
	Errors          int64 `json:"errors"`
	Status429       int64 `json:"status_429,omitempty"`
	Status503       int64 `json:"status_503,omitempty"`
	Status504       int64 `json:"status_504,omitempty"`
	StatusOther     int64 `json:"status_other,omitempty"`
	TransportErrors int64 `json:"transport_errors,omitempty"`
	// Retries counts the extra attempts the retry budget consumed on
	// 429/503 responses.  A retried-then-successful op counts once in OK
	// and its attempts here — retries are load, not failures, so they are
	// deliberately kept out of Count and Errors.
	Retries int64 `json:"retries,omitempty"`
	// Latency statistics in milliseconds over successful requests.
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`
	// Buckets is the merged histogram (non-empty buckets only): any
	// quantile can be recomputed offline from it.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// statsOf renders one merged (histogram, outcome tally, retry count) tuple.
func statsOf(h *Histogram, outcomes *[numOutcomes]int64, retries int64) OpStats {
	s := OpStats{
		OK:              h.Count(),
		Status429:       outcomes[outcome429],
		Status503:       outcomes[outcome503],
		Status504:       outcomes[outcome504],
		StatusOther:     outcomes[outcomeOther],
		TransportErrors: outcomes[outcomeTransport],
		Retries:         retries,
		MeanMS:          h.MeanMS(),
		P50MS:           h.QuantileMS(0.50),
		P99MS:           h.QuantileMS(0.99),
		P999MS:          h.QuantileMS(0.999),
		MaxMS:           h.MaxMS(),
		Buckets:         h.Buckets(),
	}
	s.Errors = s.Status429 + s.Status503 + s.Status504 + s.StatusOther + s.TransportErrors
	s.Count = s.OK + s.Errors
	return s
}

// assemble merges the per-worker recorders into the sub-run's RunResult.
func assemble(cfg Config, recs []*recorder, setupMS float64, elapsed time.Duration, offered float64) RunResult {
	merged := &recorder{}
	for _, r := range recs {
		merged.merge(r)
	}
	res := RunResult{
		Config:     configInfo(cfg),
		SetupMS:    setupMS,
		DurationS:  elapsed.Seconds(),
		OfferedRPS: offered,
		Ops:        make(map[string]OpStats, numOps),
	}
	var totalHist Histogram
	var totalOutcomes [numOutcomes]int64
	var totalRetries int64
	names := Ops()
	for op := 0; op < numOps; op++ {
		st := statsOf(&merged.hists[op], &merged.outcomes[op], merged.retries[op])
		if st.Count > 0 {
			res.Ops[names[op]] = st
		}
		totalHist.Merge(&merged.hists[op])
		totalRetries += merged.retries[op]
		for c := 0; c < int(numOutcomes); c++ {
			totalOutcomes[c] += merged.outcomes[op][c]
		}
	}
	res.Total = statsOf(&totalHist, &totalOutcomes, totalRetries)
	if res.DurationS > 0 {
		res.AchievedRPS = float64(res.Total.OK) / res.DurationS
	}
	return res
}

// Print renders the sub-run as an aligned summary table: the form divslam
// prints after every sub-run and divbench prints for every slam cell.
func (r RunResult) Print(out io.Writer) {
	head := fmt.Sprintf("%s · %d tenants · %d workers", r.Config.Mode, r.Config.Tenants, r.Config.Workers)
	if r.VaryValue != "" {
		head += " · vary=" + r.VaryValue
	}
	fmt.Fprintf(out, "%s\n", head)
	if r.OfferedRPS > 0 {
		fmt.Fprintf(out, "  offered %.1f rps, achieved %.1f rps over %.1fs (setup %.0fms)\n",
			r.OfferedRPS, r.AchievedRPS, r.DurationS, r.SetupMS)
	} else {
		fmt.Fprintf(out, "  achieved %.1f rps over %.1fs (setup %.0fms)\n",
			r.AchievedRPS, r.DurationS, r.SetupMS)
	}
	fmt.Fprintf(out, "  %-8s %8s %7s %9s %9s %9s %9s\n", "op", "count", "errors", "p50 ms", "p99 ms", "p999 ms", "max ms")
	rows := make([]string, 0, len(r.Ops))
	for op := range r.Ops {
		rows = append(rows, op)
	}
	sort.Strings(rows)
	for _, op := range rows {
		st := r.Ops[op]
		fmt.Fprintf(out, "  %-8s %8d %7d %9.2f %9.2f %9.2f %9.2f\n",
			op, st.Count, st.Errors, st.P50MS, st.P99MS, st.P999MS, st.MaxMS)
	}
	st := r.Total
	fmt.Fprintf(out, "  %-8s %8d %7d %9.2f %9.2f %9.2f %9.2f\n",
		"total", st.Count, st.Errors, st.P50MS, st.P99MS, st.P999MS, st.MaxMS)
	if st.Errors > 0 {
		fmt.Fprintf(out, "  errors: %d×429 %d×503 %d×504 %d×other %d×transport\n",
			st.Status429, st.Status503, st.Status504, st.StatusOther, st.TransportErrors)
	}
	if st.Retries > 0 {
		fmt.Fprintf(out, "  retries: %d consumed on 429/503 backpressure\n", st.Retries)
	}
	if r.Mem != nil {
		fmt.Fprintf(out, "  mem: %s alloc (%s/op), %d GCs, max pause %.2f ms\n",
			formatBytes(r.Mem.AllocBytes), formatBytes(uint64(r.Mem.AllocBytesPerOp)), r.Mem.GCCount, r.Mem.MaxPauseMS)
	}
}

// formatBytes renders a byte count with a binary unit suffix.
func formatBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// configInfo renders the normalised config echo of a sub-run.
func configInfo(cfg Config) ConfigInfo {
	return ConfigInfo{
		URL:            cfg.URL,
		Mode:           cfg.Mode,
		Tenants:        cfg.Tenants,
		Hosts:          cfg.Hosts,
		Degree:         cfg.Degree,
		Services:       cfg.Services,
		Solver:         cfg.Solver,
		Seed:           cfg.Seed,
		Workers:        cfg.Workers,
		Rate:           cfg.Rate,
		WorkerRate:     cfg.WorkerRate,
		DurS:           cfg.Dur.Seconds(),
		Ops:            cfg.Ops,
		Mix:            cfg.Mix,
		MaxIterations:  cfg.MaxIterations,
		AssessRuns:     cfg.AssessRuns,
		RequestTimeout: cfg.RequestTimeout.Seconds(),
		Retries:        cfg.Retries,
		BackoffS:       cfg.Backoff.Seconds(),
		ReplicaReads:   cfg.ReplicaReads,
	}
}

// Validate checks the structural invariants of a report.
func (r *Report) Validate() error {
	if r == nil {
		return fmt.Errorf("slam: nil report")
	}
	if r.SchemaVersion != SchemaVersion {
		return fmt.Errorf("slam: report schema version %d, this build expects %d", r.SchemaVersion, SchemaVersion)
	}
	if len(r.Runs) == 0 {
		return fmt.Errorf("slam: report has no runs")
	}
	return nil
}

// WriteFile writes the report as indented JSON with a trailing newline.
func (r *Report) WriteFile(path string) error {
	if err := r.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads and validates a report.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("slam: parsing %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("slam: %s: %w", path, err)
	}
	return &r, nil
}

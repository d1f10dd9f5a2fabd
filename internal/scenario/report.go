package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// SchemaVersion identifies the BENCH_<suite>.json layout.  Bump it on any
// incompatible change to Report or Measurement; ReadFile rejects reports
// written by a different version so the gate never diffs apples against
// oranges.
//
// Version history: 1 initial layout; 2 dropped the serve_* fields, nested
// the slam phase as one "slam" object (slam.RunResult) and added the churn
// work counters.
const SchemaVersion = 2

// MatrixInfo is the serialisable summary of the matrix a report was produced
// from, normalised (defaults applied) so two runs of the same suite always
// record identical metadata.
type MatrixInfo struct {
	Topologies    []string `json:"topologies"`
	Hosts         []int    `json:"hosts"`
	Degrees       []int    `json:"degrees"`
	Services      []int    `json:"services"`
	Products      int      `json:"products_per_service"`
	Solvers       []string `json:"solvers"`
	Attacks       []string `json:"attacks"`
	Churns        []string `json:"churns"`
	MaxIterations int      `json:"max_iterations"`
	Seed          int64    `json:"seed"`
	TimeoutMS     int64    `json:"timeout_ms,omitempty"`
	Workers       int      `json:"workers"`
	Parts         int      `json:"parts,omitempty"`
	GraphDirect   bool     `json:"graph_direct,omitempty"`
	SlamProfiles  []string `json:"slam_profiles,omitempty"`
	AttackRuns    int      `json:"attack_runs"`
	Repeats       int      `json:"repeats"`
}

// Environment records where a report was produced, for interpreting its
// wall-clock columns.  The gate never reads it: it compares only counters
// that do not depend on the machine.
type Environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Report is the machine-readable result of one suite run.
type Report struct {
	SchemaVersion int           `json:"schema_version"`
	Suite         string        `json:"suite"`
	GeneratedAt   string        `json:"generated_at"`
	Matrix        MatrixInfo    `json:"matrix"`
	Env           Environment   `json:"environment"`
	Cells         []Measurement `json:"cells"`
}

// NewReport initialises a report for a matrix: schema version, suite name,
// timestamp, normalised matrix metadata and the environment.
func NewReport(m Matrix) *Report {
	m = m.withDefaults()
	name := m.Name
	if name == "" {
		name = "adhoc"
	}
	return &Report{
		SchemaVersion: SchemaVersion,
		Suite:         name,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		Matrix: MatrixInfo{
			Topologies:    m.Topologies,
			Hosts:         m.Hosts,
			Degrees:       m.Degrees,
			Services:      m.Services,
			Products:      m.ProductsPerService,
			Solvers:       m.Solvers,
			Attacks:       m.Attacks,
			Churns:        m.Churns,
			MaxIterations: m.MaxIterations,
			Seed:          m.Seed,
			TimeoutMS:     int64(m.Timeout / time.Millisecond),
			Workers:       m.Workers,
			Parts:         m.Parts,
			GraphDirect:   m.GraphDirect,
			SlamProfiles:  m.SlamProfiles,
			AttackRuns:    m.AttackRuns,
			Repeats:       m.Repeats,
		},
		Env: Environment{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
}

// Validate checks the structural invariants of a report: matching schema
// version, a suite name, and non-empty cells with unique IDs.
func (r *Report) Validate() error {
	if r == nil {
		return fmt.Errorf("scenario: nil report")
	}
	if r.SchemaVersion != SchemaVersion {
		return fmt.Errorf("scenario: report schema version %d, this build reads and writes %d: regenerate the file with divbench -suite %s",
			r.SchemaVersion, SchemaVersion, r.Suite)
	}
	if r.Suite == "" {
		return fmt.Errorf("scenario: report has no suite name")
	}
	if len(r.Cells) == 0 {
		return fmt.Errorf("scenario: report has no cells")
	}
	seen := make(map[string]bool, len(r.Cells))
	for i, c := range r.Cells {
		if c.ID == "" {
			return fmt.Errorf("scenario: cell %d has no ID", i)
		}
		if seen[c.ID] {
			return fmt.Errorf("scenario: duplicate cell ID %q", c.ID)
		}
		seen[c.ID] = true
	}
	return nil
}

// Failed returns the cells that ended in an error.  Timed-out cells are not
// among them: a timeout marks the report, it does not fail the suite.
func (r *Report) Failed() []Measurement {
	var out []Measurement
	for _, c := range r.Cells {
		if c.Error != "" {
			out = append(out, c)
		}
	}
	return out
}

// Cell returns the measurement with the given ID.
func (r *Report) Cell(id string) (Measurement, bool) {
	for _, c := range r.Cells {
		if c.ID == id {
			return c, true
		}
	}
	return Measurement{}, false
}

// WriteFile writes the report as indented JSON (trailing newline included so
// the file is diff- and editor-friendly when checked into the repo).
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
		return nil, fmt.Errorf("scenario: parsing %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return &r, nil
}

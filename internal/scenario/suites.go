package scenario

import (
	"fmt"
	"sort"
	"time"
)

// Suite returns the named benchmark matrix.  Suites are functions of their
// name only, so a BENCH_<suite>.json baseline produced by one build is
// comparable with the same suite run by another build (the diff matches
// cells by ID; a suite edit shows up as new/missing/stale cells, which fail
// the gate until the baseline is regenerated).
func Suite(name string) (Matrix, error) {
	f, ok := suites()[name]
	if !ok {
		return Matrix{}, fmt.Errorf("scenario: unknown suite %q (known: %v)", name, SuiteNames())
	}
	return f(), nil
}

// SuiteNames lists the registered suite names, sorted.
func SuiteNames() []string {
	reg := suites()
	out := make([]string, 0, len(reg))
	for name := range reg {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func suites() map[string]func() Matrix {
	return map[string]func() Matrix{
		// quick is the CI gate: every solver on two topology families at two
		// sizes under the reconnaissance attack estimate, plus the
		// full-knowledge Monte-Carlo attacker so the compiled attack engine's
		// per-run allocation is gated per PR.  It must finish in well under
		// two minutes on a 1-core runner; Repeats=3 takes the minimum
		// wall-clock per cell to damp scheduler noise in the reported column.
		"quick": func() Matrix {
			return Matrix{
				Name:          "quick",
				Topologies:    []string{TopoUniform, TopoZoned},
				Hosts:         []int{200, 1000},
				Degrees:       []int{8},
				Services:      []int{3},
				Solvers:       []string{"trws", "bp", "icm", "anneal"},
				Attacks:       []string{"recon", "adv-full"},
				MaxIterations: 40,
				Seed:          42,
				Timeout:       60 * time.Second,
				AttackRuns:    200,
				Repeats:       3,
			}
		},
		// full is the paper-scale matrix: every topology family, up to 1000
		// hosts, every solver, both an analytic and a Monte-Carlo attacker.
		"full": func() Matrix {
			return Matrix{
				Name:          "full",
				Topologies:    Topologies(),
				Hosts:         []int{50, 200, 1000},
				Degrees:       []int{8},
				Services:      []int{3},
				Solvers:       []string{"trws", "bp", "icm", "anneal"},
				Attacks:       []string{"recon", "adv-full"},
				MaxIterations: 20,
				Seed:          42,
				Timeout:       5 * time.Minute,
				AttackRuns:    100,
				Repeats:       1,
			}
		},
		// churn measures the incremental re-optimisation engine: every cell
		// replays a deterministic delta stream (host joins/leaves, service
		// upgrades) through ApplyDelta + Reoptimize and re-solves the mutated
		// network from scratch after each step for comparison.  The headline
		// cell is uniform/h1000 trws at 5% host churn: incremental must stay
		// within ~1% of the full re-solve energy at a multiple of its speed.
		"churn": func() Matrix {
			return Matrix{
				Name:          "churn",
				Topologies:    []string{TopoUniform},
				Hosts:         []int{200, 1000},
				Degrees:       []int{8},
				Services:      []int{3},
				Solvers:       []string{"trws", "icm"},
				Attacks:       []string{"none"},
				Churns:        []string{"hosts5", "mixed10"},
				MaxIterations: 40,
				Seed:          42,
				Timeout:       3 * time.Minute,
				Repeats:       1,
			}
		},
		// slam measures the serving plane under concurrent multi-tenant load
		// (internal/slam, closed loop, fixed op budgets) in three shapes —
		// see slamShapes: the balanced base cell, the contended cell that
		// keeps writers queued behind every session's writer slot, and the
		// replica cell that serves reads from a follower.  The gate holds
		// each to a clean error count and its allocation per request; the
		// p99s under contention are reported beside them.  Request latency
		// with a noise protocol is benchmark/run.sh's job.
		"slam": func() Matrix {
			return Matrix{
				Name:          "slam",
				Topologies:    []string{TopoUniform},
				Hosts:         []int{50},
				Degrees:       []int{8},
				Services:      []int{3},
				Solvers:       []string{"trws"},
				Attacks:       []string{"none"},
				SlamProfiles:  []string{SlamProfileBase, SlamProfileContended, SlamProfileReplica},
				MaxIterations: 40,
				Seed:          42,
				Timeout:       2 * time.Minute,
				Repeats:       1,
			}
		},
		// scale measures raw solver scaling through the graph-direct path:
		// the streamed CSR generator emits the MRF without a network model,
		// so sizes far beyond the map-based model (10^5 hosts on PRs, 10^6
		// behind scale1m) run flat trws against the multilevel kernel.  A
		// cell that outgrows its timeout records a timed_out marker instead
		// of failing the suite, so the flat solver aging out at large sizes
		// is data, not an error.
		"scale": func() Matrix {
			return Matrix{
				Name:          "scale",
				Topologies:    []string{TopoUniform},
				Hosts:         []int{10000, 100000},
				Degrees:       []int{8},
				Services:      []int{3},
				Solvers:       []string{"trws", "multilevel"},
				Attacks:       []string{"none"},
				GraphDirect:   true,
				MaxIterations: 40,
				Seed:          42,
				Timeout:       3 * time.Minute,
				Repeats:       1,
			}
		},
		// scale1m is the million-host demonstration cell set: multilevel
		// only (flat trws would blow the timeout by an order of magnitude),
		// dispatched manually or from the workflow_dispatch CI job.
		"scale1m": func() Matrix {
			return Matrix{
				Name:          "scale1m",
				Topologies:    []string{TopoUniform},
				Hosts:         []int{1000000},
				Degrees:       []int{8},
				Services:      []int{3},
				Solvers:       []string{"multilevel"},
				Attacks:       []string{"none"},
				GraphDirect:   true,
				MaxIterations: 40,
				Seed:          42,
				Timeout:       10 * time.Minute,
				Repeats:       1,
			}
		},
		// pipeline measures the partitioned parallel pipeline (eight blocks)
		// on the largest size of two topology families.  It expands no
		// sequential twin cells.
		"pipeline": func() Matrix {
			return Matrix{
				Name:          "pipeline",
				Topologies:    []string{TopoUniform, TopoScaleFree},
				Hosts:         []int{1000},
				Degrees:       []int{10},
				Services:      []int{3},
				Solvers:       []string{"trws"},
				Attacks:       []string{"none"},
				MaxIterations: 20,
				Seed:          42,
				Timeout:       5 * time.Minute,
				Parts:         8,
				Repeats:       3,
			}
		},
	}
}

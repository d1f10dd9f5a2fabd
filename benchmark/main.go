// Command benchmark is the repository's one performance benchmark: it drives
// an in-process divd deployment from a single closed-loop client with a
// seed-generated op stream and reports the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) named in BENCHMARK.json.  See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	// Registers the "multilevel" solver, the way the root package does.
	_ "netdiversity/internal/multilevel"
	"netdiversity/internal/profiling"
)

// maxProcs pins GOMAXPROCS: the reference box has 2 cores, and before Go
// 1.25 the runtime ignores a container's CPU quota.
const maxProcs = 2

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName  = fs.String("workload", "", "workload to run (default: all, one after the other)")
		seed          = fs.Int64("seed", 1, "seed of the request stream: which hosts and links each delta touches")
		seconds       = fs.Float64("seconds", runSeconds, "length of the measured phase")
		trace         = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics instead of the end-to-end ones")
		list          = fs.Bool("list", false, "print workloads and metrics (name, unit, direction, bound) and exit")
		selfcheck     = fs.Int("selfcheck", 0, "run the selected workloads as two interleaved sets of `n` seeds and compare them against the bounds")
		smoke         = fs.Bool("smoke", false, "clock-free run of a few seconds: tenants a twentieth the size, three rounds of one cycle")
		printManifest = fs.Bool("manifest", false, "print BENCHMARK.json as generated from the catalogue and exit")
		workDir       = fs.String("workdir", ".bench_build", "directory for WAL data (created; must be inside the checkout)")
		outDir        = fs.String("out", "benchmark/out", "directory for trace-<workload>.jsonl")
		cpuprofile    = fs.String("cpuprofile", "", "write a CPU profile of the run to `file`")
		memprofile    = fs.String("memprofile", "", "write a heap profile at the end of the run to `file`")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(maxProcs)
	if *list {
		printList(stdout)
		return 0
	}
	if *printManifest {
		stdout.Write(buildManifest()) //nolint:errcheck // stdout
		return 0
	}
	selected := workloads
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (see -list)\n", *workloadName)
			return 2
		}
		selected = []workload{w}
	}
	if *selfcheck > 0 {
		return selfCheck(selected, *selfcheck, *seconds, stdout, stderr)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := startReference(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer stopReference()
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
		}
	}()
	code := 0
	for _, w := range selected {
		cfg := runConfig{w: w, seed: *seed, seconds: *seconds, workDir: *workDir}
		if *smoke {
			cfg.w, cfg.cyclesPerRound = w.shrunk(), 1
		}
		var rep *report
		var err error
		if *trace == 1 {
			rep, err = runTraced(cfg, *outDir)
		} else {
			rep, err = runPlain(cfg)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		rep.print(stdout)
		if !rep.Correct {
			code = 1
		}
	}
	return code
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome.  Its JSON form is the result line the
// benchmark driver parses; the rest is for people.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	workload string
	seed     int64
	notes    []string
}

// environment is the block every report starts with.
func environment(workDir string) string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s datadir=%s(%s)",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), workDir, fsType(workDir))
}

// print writes the human-readable report followed by the result line.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "== %s seed=%d\n", r.workload, r.seed)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Fprintf(w, "%s\n", line)
}

// runPlain is the untraced run: end-to-end metrics only.
func runPlain(cfg runConfig) (*report, error) {
	res, err := run(cfg)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Correct:   res.failed == 0 && len(res.gateErrs) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
		workload:  cfg.w.name,
		seed:      cfg.seed,
	}
	rep.notes = append(rep.notes, "  env: "+environment(cfg.workDir),
		fmt.Sprintf("  measured %.2fs, %d ops attempted, %d failed, schedule %016x, state %s",
			res.measuredS, res.attempted, res.failed, res.schedDigest, res.setupDigest))
	for i, r := range res.roundStats {
		line := fmt.Sprintf("  round %2d: %5d ops in %5.2fs raw (%7.1f ops/s), speed factor %.3f -> %7.1f ops/s %8.3f cpu-ms/op | p50 ms",
			i+1, r.ops, r.rawWall.Seconds(), float64(r.ops)/r.rawWall.Seconds(), r.factor,
			float64(r.ops)/r.wall.Seconds(), ms(r.cpu)/float64(r.ops))
		for k := latKind(0); k < numLat; k++ {
			line += fmt.Sprintf(" %s=%.3f(n=%d)", latNames[k], ms(quantile(r.lat[k], 0.5)), len(r.lat[k]))
		}
		rep.notes = append(rep.notes, line)
	}
	if res.firstOpErr != nil {
		rep.notes = append(rep.notes, "  first failed op: "+res.firstOpErr.Error())
	}
	for _, e := range res.gateErrs {
		rep.notes = append(rep.notes, "  GATE FAILED: "+e.Error())
	}
	for _, m := range endToEnd {
		rep.Metrics[m.Name] = metricValue{Value: res.metrics[m.Name], Unit: m.Unit}
	}
	return rep, nil
}

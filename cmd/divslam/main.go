// Command divslam is the load generator for the serving plane: it drives a
// divd instance — in-process by default, or a remote base URL via -url —
// with a weighted mix of create/delta/assess/assignment-read/metrics
// requests across many tenant sessions, and reports per-operation latency
// histograms (p50/p99/p999, worker-count-invariant), error/429/503/504
// accounting and achieved-vs-offered throughput as schema-versioned JSON.
// See docs/LOADTEST.md for the full guide.
//
// Usage:
//
//	divslam [-mode closed|open] [-tenants N] [-workers N] [-rate R]
//	        [-worker-rate R] [-dur 10s] [-ops N] [-mix read=70,delta=15,...]
//	        [-hosts N] [-degree N] [-services N] [-solver trws] [-seed S]
//	        [-retries N] [-backoff 100ms] [-replica-reads]
//	        [-vary field -values v1,v2,...] [-url http://host:port]
//	        [-out report.json]
//
// Closed loop (default) runs -workers workers that each issue their next
// request as soon as the previous returns, paced by -rate (total) and
// -worker-rate (per worker).  Open loop fires requests on a seeded Poisson
// schedule at -rate regardless of completions, measuring latency from the
// scheduled arrival time so queueing collapse is visible.  -vary sweeps one
// field (tenants, workers, rate, hosts, mix) across -values as sub-runs of
// one report.
//
// -retries gives each logical operation a retry budget against 429/503
// backpressure: the client sleeps the response's Retry-After when present
// and an exponential -backoff otherwise, and only the final outcome counts
// as success or error — consumed retries are reported separately, and the
// recorded latency covers the whole logical operation including backoff.
//
// -replica-reads boots an in-process primary/follower replication pair
// (internal/replic) instead of a single server: writes target the primary,
// reads and metrics the follower, and setup waits for the follower to
// converge on the tenant population — the replica-read deployment shape
// under the same load machinery.  In-process mode only (no -url).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"netdiversity/internal/slam"

	// -solver multilevel: the in-process server resolves the name through the
	// solve registry, which only holds the kernels the binary links.
	_ "netdiversity/internal/multilevel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "divslam:", err)
		os.Exit(1)
	}
}

// run parses the flags, executes the (possibly swept) load run and writes
// the report; a summary table per sub-run goes to out as the sweep
// progresses.  SIGINT/SIGTERM cancels the run.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("divslam", flag.ContinueOnError)
	var (
		url        = fs.String("url", "", "remote divd base URL (empty boots an in-process server)")
		mode       = fs.String("mode", "closed", "load model: closed (worker pool) or open (Poisson arrivals)")
		tenants    = fs.Int("tenants", 4, "tenant sessions created before the measured phase")
		hosts      = fs.Int("hosts", 50, "hosts per tenant network")
		degree     = fs.Int("degree", 8, "average degree of tenant networks")
		services   = fs.Int("services", 3, "services per host")
		solver     = fs.String("solver", "trws", "per-session solver")
		maxIter    = fs.Int("max-iterations", 40, "solver iteration budget per session")
		assessRuns = fs.Int("assess-runs", 20, "Monte-Carlo runs per assess request")
		seed       = fs.Int64("seed", 42, "seed for tenant generation, op draws and arrivals")
		workers    = fs.Int("workers", 8, "closed-loop workers / open-loop dispatch pool")
		rate       = fs.Float64("rate", 0, "total request rate cap (required and = offered rate in open loop; 0 = unlimited in closed loop)")
		workerRate = fs.Float64("worker-rate", 0, "per-worker rate cap, closed loop (0 = unlimited)")
		dur        = fs.Duration("dur", 0, "measured-phase duration (default 10s unless -ops is set)")
		ops        = fs.Int("ops", 0, "measured-phase request budget, closed loop (0 = duration-bounded)")
		mix        = fs.String("mix", slam.DefaultMix, "weighted operation mix, op=weight pairs")
		reqTimeout = fs.Duration("request-timeout", 30*time.Second, "per-request client deadline")
		retries    = fs.Int("retries", 0, "retry budget per operation on 429/503 (0 = no retries)")
		backoff    = fs.Duration("backoff", 100*time.Millisecond, "base retry backoff when the response has no Retry-After (doubles per attempt)")
		replicaRds = fs.Bool("replica-reads", false, "boot an in-process primary/follower pair and serve reads/metrics from the follower (in-process mode only)")
		vary       = fs.String("vary", "", "field swept across -values: "+strings.Join(slam.VaryFields(), ", "))
		values     = fs.String("values", "", "comma-separated values of the -vary field")
		outPath    = fs.String("out", "", "write the JSON report to this file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := slam.Config{
		URL:            *url,
		Mode:           *mode,
		Tenants:        *tenants,
		Hosts:          *hosts,
		Degree:         *degree,
		Services:       *services,
		Solver:         *solver,
		MaxIterations:  *maxIter,
		AssessRuns:     *assessRuns,
		Seed:           *seed,
		Workers:        *workers,
		Rate:           *rate,
		WorkerRate:     *workerRate,
		Dur:            *dur,
		Ops:            *ops,
		Mix:            *mix,
		RequestTimeout: *reqTimeout,
		Retries:        *retries,
		Backoff:        *backoff,
		ReplicaReads:   *replicaRds,
		Vary:           *vary,
	}
	if *values != "" {
		for _, v := range strings.Split(*values, ",") {
			cfg.Values = append(cfg.Values, strings.TrimSpace(v))
		}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	rep, err := slam.Run(ctx, cfg, func(r slam.RunResult) { r.Print(out) })
	if err != nil {
		return err
	}
	if *outPath == "" {
		data, err := reportJSON(rep)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, data)
		return nil
	}
	if err := rep.WriteFile(*outPath); err != nil {
		return err
	}
	fmt.Fprintf(out, "report written to %s\n", *outPath)
	return nil
}

// reportJSON renders the report the same way WriteFile does, for stdout.
func reportJSON(rep *slam.Report) (string, error) {
	if err := rep.Validate(); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return string(data), nil
}

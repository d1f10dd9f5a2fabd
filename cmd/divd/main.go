// Command divd is the long-running diversification daemon: an HTTP/JSON
// service that holds many tenant networks alive as sessions, re-optimises
// them incrementally as deltas arrive and assesses them with the compiled
// attack engine.  See docs/API.md for the endpoint reference.
//
// Usage:
//
//	divd [-addr :8080] [-shards 8] [-solve-workers N] [-request-timeout 30s]
//	     [-max-sessions 1024] [-preload spec.json,spec2.json] [-pprof addr]
//
// Endpoints (all under /v1):
//
//	POST   /v1/networks                  create a session from a netmodel spec
//	GET    /v1/networks                  list sessions
//	GET    /v1/networks/{id}             session summary
//	DELETE /v1/networks/{id}             drop a session
//	POST   /v1/networks/{id}/deltas      apply a delta batch + re-optimise
//	GET    /v1/networks/{id}/assignment  current assignment (lock-free read)
//	GET    /v1/networks/{id}/metrics     energy, pairwise cost, d1/d2/d3
//	POST   /v1/networks/{id}/assess      Monte-Carlo attack campaign (MTTC)
//	GET    /healthz                      liveness + session count
//
// -preload creates one session per comma-separated spec file at startup
// (IDs preload-0, preload-1, ... with the paper similarity table), so a
// fleet can come up already serving.  -pprof serves net/http/pprof on a
// second listener with its own mux — the profiling surface is never mounted
// on the public API mux, so exposing the API never exposes the profiler.
// On SIGINT/SIGTERM the daemon drains:
// new state-changing requests get 503 while in-flight solves finish, then
// the listener closes.
//
// -data-dir enables the persistence plane (see docs/DURABILITY.md): every
// accepted delta batch is journaled to a per-session write-ahead log before
// it is acknowledged, compacted snapshots truncate the log every
// -snapshot-every records, and on boot the daemon recovers every session
// from the data directory before the listener opens.  -fsync picks the
// durability point of an ack: "always" (fsync before every ack), "interval"
// (background fsync every -fsync-interval) or "never" (write to the OS
// before ack — survives a process crash, not an OS crash; the default).
//
// -replicate-to and -follow enable the replication plane (see
// docs/REPLICATION.md).  A primary pushes every committed record to the
// follower URLs listed in -replicate-to; a node started with -follow
// <primary-url> runs as a read-only follower: it mirrors the primary's
// sessions through deterministic patch replay, serves GET traffic from its
// local snapshots, answers writes with a 307 not_primary redirect at the
// primary, and repairs any divergence with a background anti-entropy loop
// (every -anti-entropy-interval) whose cost scales with the difference, not
// the log.  -advertise overrides the URL the follower registers with the
// primary for push delivery (default: the bound listen address).  POST
// /v1/promote turns a caught-up follower into a writable primary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"netdiversity/internal/netmodel"
	"netdiversity/internal/replic"
	"netdiversity/internal/serve"
	"netdiversity/internal/wal"

	// Sessions name their solver ("solver":"multilevel"); core links the flat
	// kernels itself, the multilevel kernel registers from here.
	_ "netdiversity/internal/multilevel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "divd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until the context backing stop ends or a
// termination signal arrives.  The bound address is printed on stdout
// ("divd listening on ..."), so tests and scripts can start with -addr
// 127.0.0.1:0 and scrape the port.  stop is optional (tests use it to shut
// the daemon down without a signal).
func run(args []string, out io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("divd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		shards       = fs.Int("shards", 8, "session-store shard count")
		solveWorkers = fs.Int("solve-workers", 0, "bound on concurrently executing solves (0 = GOMAXPROCS)")
		maxSessions  = fs.Int("max-sessions", 1024, "maximum live sessions")
		reqTimeout   = fs.Duration("request-timeout", 30*time.Second, "per-request deadline (shortened per request via ?timeout_ms=)")
		maxBody      = fs.Int64("max-request-bytes", 8<<20, "maximum request body size in bytes")
		preload      = fs.String("preload", "", "comma-separated netmodel spec files to create sessions from at startup")
		drainWait    = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
		pprofAddr    = fs.String("pprof", "", "serve net/http/pprof on this address (separate listener and mux; empty = disabled)")
		dataDir      = fs.String("data-dir", "", "persist sessions to this directory and recover them on boot (empty = memory-only)")
		fsyncMode    = fs.String("fsync", "never", "WAL durability point per ack: always, interval or never")
		fsyncEvery   = fs.Duration("fsync-interval", 100*time.Millisecond, "background fsync period under -fsync interval")
		snapEvery    = fs.Int("snapshot-every", 64, "WAL records per session between compacted snapshots")
		follow       = fs.String("follow", "", "run as a replication follower of the primary at this base URL (e.g. http://10.0.0.1:8080)")
		replicateTo  = fs.String("replicate-to", "", "comma-separated follower base URLs to push committed records to")
		advertise    = fs.String("advertise", "", "base URL where the primary can reach this node (default http://<bound-addr>)")
		aeInterval   = fs.Duration("anti-entropy-interval", 2*time.Second, "period of the follower's anti-entropy reconciliation loop")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := serve.Config{
		Shards:          *shards,
		SolveWorkers:    *solveWorkers,
		MaxSessions:     *maxSessions,
		RequestTimeout:  *reqTimeout,
		MaxRequestBytes: *maxBody,
	}
	var manager *wal.Manager
	if *dataDir != "" {
		policy, err := wal.ParsePolicy(*fsyncMode)
		if err != nil {
			return err
		}
		manager, err = wal.Open(wal.Options{
			Dir:           *dataDir,
			Policy:        policy,
			Interval:      *fsyncEvery,
			SnapshotEvery: *snapEvery,
		})
		if err != nil {
			return err
		}
		defer manager.Close()
		cfg.Persist = manager
	}
	// The replication plane comes up whenever this node pushes to followers
	// or follows a primary.  A follower gets a Primary too: its hook-fed
	// record history is what lets a promoted follower serve further
	// followers without warm-up.
	var (
		prim *replic.Primary
		fol  *replic.Follower
	)
	if *follow != "" || *replicateTo != "" {
		prim = replic.NewPrimary(replic.PrimaryOptions{})
		defer prim.Close()
		cfg.Replicator = prim
		cfg.OnPromote = func() {
			if fol != nil {
				fol.Stop()
			}
		}
		cfg.Replication = func() *serve.ReplicationStats { return replicationStats(prim, fol) }
	}
	srv := serve.New(cfg)
	if prim != nil {
		prim.Bind(srv)
	}
	if *follow != "" {
		srv.SetFollower(*follow)
	}
	if manager != nil {
		if err := recoverSessions(srv, manager, out); err != nil {
			return err
		}
	}
	if *preload != "" {
		if err := preloadSpecs(srv, *preload, out); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "divd listening on %s\n", ln.Addr())

	// The profiler gets its own listener and mux: pprof handlers are
	// deliberately kept off the API mux so they share none of its exposure.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		defer pln.Close()
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(out, "divd pprof on %s\n", pln.Addr())
		go func() { _ = (&http.Server{Handler: pmux}).Serve(pln) }()
	}

	handler := srv.Handler()
	if prim != nil {
		// The replication endpoints share the API listener under /v1/replic/;
		// the ingest sink exists only on followers.
		rmux := http.NewServeMux()
		if *follow != "" {
			fol = replic.NewFollower(srv, *follow, replic.FollowerOptions{
				Interval:  *aeInterval,
				Advertise: advertiseURL(*advertise, ln.Addr()),
			})
			fol.Run()
			defer fol.Stop()
			rmux.Handle(replic.PathIngest, fol.IngestHandler())
		}
		rmux.Handle("/v1/replic/", prim.Handler())
		rmux.Handle("/", handler)
		handler = rmux
		for _, u := range strings.Split(*replicateTo, ",") {
			if u = strings.TrimSpace(u); u != "" {
				prim.Attach(u)
				fmt.Fprintf(out, "divd replicating to %s\n", u)
			}
		}
		if *follow != "" {
			fmt.Fprintf(out, "divd following %s\n", *follow)
		}
	}

	httpSrv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(out, "divd: %s, draining\n", sig)
	case <-stop:
		fmt.Fprintln(out, "divd: stop requested, draining")
	}

	// Drain: reject new state-changing work immediately, then let
	// http.Server.Shutdown wait for the in-flight handlers (and therefore
	// the in-flight solves) to complete.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// advertiseURL resolves the URL a follower registers with its primary for
// push delivery: the explicit -advertise value, or the bound listen address
// with an unspecified host rewritten to loopback (":0" binds every
// interface; the primary needs one it can dial).
func advertiseURL(explicit string, bound net.Addr) string {
	if explicit != "" {
		return explicit
	}
	host, port, err := net.SplitHostPort(bound.String())
	if err != nil {
		return "http://" + bound.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// replicationStats maps the replication plane's state onto the healthz
// block: push-side follower lag from the Primary, pull-side anti-entropy
// state from the Follower (when this node follows).
func replicationStats(prim *replic.Primary, fol *replic.Follower) *serve.ReplicationStats {
	rs := &serve.ReplicationStats{}
	for _, f := range prim.Followers() {
		rs.Followers = append(rs.Followers, serve.FollowerLag{
			URL:            f.URL,
			QueuedRecords:  f.QueuedRecords,
			QueuedBytes:    f.QueuedBytes,
			SentRecords:    f.SentRecords,
			DroppedRecords: f.Dropped,
			Errors:         f.Errors,
			LastError:      f.LastError,
		})
	}
	if fol != nil {
		st := fol.Stats()
		rs.AntiEntropy = &serve.AntiEntropyStats{
			Rounds:           st.Rounds,
			LastRoundUnixMS:  st.LastRoundUnixMS,
			InSync:           st.InSync,
			RecordsApplied:   st.RecordsApplied,
			RecordsFetched:   st.RecordsFetched,
			SnapshotsFetched: st.SnapshotsFetched,
			BadRecords:       st.BadRecords,
			PendingRecords:   st.PendingRecords,
			Errors:           st.Errors,
			LastError:        st.LastError,
		}
	}
	return rs
}

// recoverSessions restores every session the data directory holds before
// the listener opens, so a restarted daemon comes back serving exactly the
// durably-acked state.  Unrecoverable sessions are reported and skipped —
// one corrupt tenant must not keep the rest of the fleet down.  On a follower
// (SetFollower already ran) Restore brings back replica sessions: no
// optimiser, advanceable by patch replay, caught up from the primary by the
// anti-entropy loop.
func recoverSessions(srv *serve.Server, manager *wal.Manager, out io.Writer) error {
	recovered, skipped, err := manager.Recover()
	if err != nil {
		return err
	}
	for _, rec := range recovered {
		if err := srv.Restore(rec); err != nil {
			fmt.Fprintf(out, "divd: recovery skipped %s: %v\n", rec.Snapshot.ID, err)
			continue
		}
		note := ""
		if rec.TornTail {
			note = " (torn log tail dropped)"
		}
		fmt.Fprintf(out, "divd: recovered %s at version %d (%d records replayed)%s\n",
			rec.Snapshot.ID, rec.Snapshot.Version, rec.Replayed, note)
	}
	for _, sk := range skipped {
		fmt.Fprintf(out, "divd: recovery skipped %s: %v\n", sk.ID, sk.Err)
	}
	return nil
}

// preloadSpecs creates one session per spec file before the listener opens,
// using the strict decoder (preload files often come from the same untrusted
// sources as API requests) and the paper similarity table.  A preload ID
// that already exists (recovered from the data directory) is left as is —
// the recovered state is newer than the spec file.
func preloadSpecs(srv *serve.Server, list string, out io.Writer) error {
	for i, path := range strings.Split(list, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		net, cs, err := netmodel.DecodeSpecStrict(f, netmodel.SpecLimits{})
		f.Close()
		if err != nil {
			return fmt.Errorf("preload %s: %w", path, err)
		}
		id := fmt.Sprintf("preload-%d", i)
		if err := srv.Preload(id, net, cs, 0); err != nil {
			if errors.Is(err, serve.ErrSessionExists) {
				fmt.Fprintf(out, "divd: preload %s: %s already recovered, keeping recovered state\n", path, id)
				continue
			}
			return fmt.Errorf("preload %s: %w", path, err)
		}
		fmt.Fprintf(out, "divd: preloaded %s as %s\n", path, id)
	}
	return nil
}

package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"netdiversity/internal/replic"
	"netdiversity/internal/serve"
	"netdiversity/internal/wal"
)

const requestTimeout = 120 * time.Second

// stack is one in-process divd deployment behind loopback listeners, wired
// the way cmd/divd wires -data-dir, -replicate-to and -follow.
type stack struct {
	srv  *serve.Server
	http *http.Server
	// base is the primary's URL; readBase where read and metrics ops go (the
	// follower when the workload has one).
	base, readBase string

	dataDir string
	manager *wal.Manager

	prim    *replic.Primary
	folSrv  *serve.Server
	fol     *replic.Follower
	folHTTP *http.Server
}

func serveConfig(w workload) serve.Config {
	return serve.Config{MaxSessions: w.tenants + 16, RequestTimeout: requestTimeout}
}

// walOptions is the persistence configuration of every WAL the benchmark
// opens: fsync before every ack, a compacted snapshot every 64 records (so a
// run sees ten or more compaction cycles per tenant).
func walOptions(dir string) wal.Options {
	return wal.Options{Dir: dir, Policy: wal.SyncAlways, SnapshotEvery: 64}
}

// bootStack starts the deployment of a workload.  Durable workloads journal
// to dataDir with fsync=always and stream to a follower over loopback.
func bootStack(w workload, dataDir string) (*stack, error) {
	st := &stack{}
	cfg := serveConfig(w)
	if w.durable {
		st.dataDir = dataDir
		m, err := wal.Open(walOptions(dataDir))
		if err != nil {
			return nil, err
		}
		st.manager = m
		st.prim = replic.NewPrimary(replic.PrimaryOptions{})
		cfg.Persist = m
		cfg.Replicator = st.prim
	}
	st.srv = serve.New(cfg)
	handler := st.srv.Handler()
	if st.prim != nil {
		st.prim.Bind(st.srv)
		mux := http.NewServeMux()
		mux.Handle("/v1/replic/", st.prim.Handler())
		mux.Handle("/", handler)
		handler = mux
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.stop()
		return nil, err
	}
	st.http = &http.Server{Handler: handler}
	go st.http.Serve(ln) //nolint:errcheck // ends with ErrServerClosed at close
	st.base = "http://" + ln.Addr().String()
	st.readBase = st.base
	if !w.durable {
		return st, nil
	}

	st.folSrv = serve.New(serveConfig(w))
	st.folSrv.SetFollower(st.base)
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.stop()
		return nil, err
	}
	st.readBase = "http://" + fln.Addr().String()
	st.fol = replic.NewFollower(st.folSrv, st.base, replic.FollowerOptions{
		Interval: 100 * time.Millisecond, Advertise: st.readBase,
	})
	fmux := http.NewServeMux()
	fmux.Handle(replic.PathIngest, st.fol.IngestHandler())
	fmux.Handle("/", st.folSrv.Handler())
	st.folHTTP = &http.Server{Handler: fmux}
	go st.folHTTP.Serve(fln) //nolint:errcheck // ends with ErrServerClosed at close
	st.fol.Run()
	st.prim.Attach(st.readBase)
	return st, nil
}

// converge blocks until the follower serves every primary session at the
// primary's version and hash.
func (st *stack) converge(ctx context.Context) error {
	if st.folSrv == nil {
		return nil
	}
	for {
		behind := ""
		for _, id := range st.srv.SessionIDs() {
			pv, ph, ok := st.srv.ReplicaVersion(id)
			if !ok {
				continue
			}
			if fv, fh, ok := st.folSrv.ReplicaVersion(id); !ok || fv != pv || fh != ph {
				behind = id
				break
			}
		}
		if behind == "" {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("follower did not converge on %s: %w", behind, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop closes every listener, stops the replication goroutines and closes
// the WAL; the data directory stays for the restart gate.
func (st *stack) stop() {
	if st.folHTTP != nil {
		st.folHTTP.Close()
	}
	if st.http != nil {
		st.http.Close()
	}
	if st.fol != nil {
		st.fol.Stop()
	}
	if st.prim != nil {
		st.prim.Close()
	}
	if st.manager != nil {
		st.manager.Close() //nolint:errcheck // fsync=always: every acked record is already durable
		st.manager = nil
	}
}

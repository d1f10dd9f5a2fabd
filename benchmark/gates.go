package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"

	"netdiversity/internal/serve"
	"netdiversity/internal/wal"
)

// stateDigest fingerprints the published (version, hash) of every tenant on
// a server.
func stateDigest(srv *serve.Server, tenants []*tenant) string {
	h := fnv.New64a()
	for _, t := range tenants {
		v, hash, _ := srv.ReplicaVersion(t.id)
		fmt.Fprintf(h, "%s@%d=%s;", t.id, v, hash)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkServes verifies that srv publishes every tenant at the client's last
// acked version and hash.
func checkServes(role string, srv *serve.Server, tenants []*tenant) []error {
	var errs []error
	for _, t := range tenants {
		if v, hash, ok := srv.ReplicaVersion(t.id); !ok || v != t.version || hash != t.hash {
			errs = append(errs, fmt.Errorf("%s: %s at version %d hash %s, last ack was %d %s", role, t.id, v, hash, t.version, t.hash))
		}
	}
	return errs
}

// finalGates runs the end-of-run correctness checks: the primary serves
// every tenant's last acked state with a self-consistent assignment over
// exactly the client model's hosts; on durable workloads the follower has
// converged to the same state and a fresh server restored from the data
// directory alone serves it too.  The stack is stopped by the restart gate.
func finalGates(l *live) []error {
	errs := checkServes("primary", l.st.srv, l.tenants)
	for _, t := range l.tenants {
		status, _ := l.cl.roundTrip(http.MethodGet, l.st.base+"/v1/networks/"+t.id+"/assignment", nil)
		var resp serve.AssignmentResponse
		if !l.cl.expect("final read "+t.id, status, http.StatusOK) {
			continue
		}
		if err := json.Unmarshal(l.cl.buf.Bytes(), &resp); err != nil {
			errs = append(errs, fmt.Errorf("final read %s: %w", t.id, err))
			continue
		}
		if got := resp.Assignment.Hash(); got != resp.AssignmentHash || got != t.hash {
			errs = append(errs, fmt.Errorf("final read %s: assignment hashes to %s, response says %s, last ack %s", t.id, got, resp.AssignmentHash, t.hash))
		}
		assigned := resp.Assignment.Hosts()
		if len(assigned) != len(t.hosts) {
			errs = append(errs, fmt.Errorf("final read %s: %d hosts assigned, model has %d", t.id, len(assigned), len(t.hosts)))
		}
		for _, h := range assigned {
			if _, ok := t.pos[h]; !ok {
				errs = append(errs, fmt.Errorf("final read %s: host %s assigned but not in the model", t.id, h))
				break
			}
		}
	}
	if !l.cfg.w.durable {
		return errs
	}
	if err := l.converge(); err != nil {
		errs = append(errs, err)
	}
	errs = append(errs, checkServes("follower", l.st.folSrv, l.tenants)...)

	l.st.stop()
	m, err := wal.Open(walOptions(l.st.dataDir))
	if err != nil {
		return append(errs, fmt.Errorf("restart: %w", err))
	}
	defer m.Close()
	recovered, skipped, err := m.Recover()
	if err != nil {
		return append(errs, fmt.Errorf("restart: %w", err))
	}
	for _, sk := range skipped {
		errs = append(errs, fmt.Errorf("restart: session %s skipped: %w", sk.ID, sk.Err))
	}
	restored := serve.New(serveConfig(l.cfg.w))
	for _, rec := range recovered {
		if err := restored.Restore(rec); err != nil {
			errs = append(errs, fmt.Errorf("restart: %w", err))
		}
	}
	return append(errs, checkServes("restarted", restored, l.tenants)...)
}

package serve

import (
	"fmt"

	"netdiversity/internal/netmodel"
	"netdiversity/internal/vulnsim"
	"netdiversity/internal/wal"
)

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error errorInfo `json:"error"`
}

// errorInfo is the machine-readable error: a stable code plus a
// human-readable message.
type errorInfo struct {
	// Code is one of: bad_request, not_found, conflict, too_many_sessions,
	// timeout, draining, internal.
	Code string `json:"code"`
	// Message describes the failure.
	Message string `json:"message"`
}

// SimilaritySpec selects the similarity table of a session at create time.
// Omitted (nil) or kind "paper" uses the paper's published tables; kind
// "custom" builds a table over the products of the submitted spec from the
// given entries, with Default for every unlisted pair.
type SimilaritySpec struct {
	// Kind is "paper" (default) or "custom".
	Kind string `json:"kind,omitempty"`
	// Default is the similarity of product pairs not listed in Entries
	// (custom tables only).
	Default float64 `json:"default,omitempty"`
	// Entries are the custom pairwise similarities (symmetric; listing one
	// direction is enough).
	Entries []SimilarityEntry `json:"entries,omitempty"`
}

// SimilarityEntry is one pairwise similarity of a custom table.
type SimilarityEntry struct {
	A   string  `json:"a"`
	B   string  `json:"b"`
	Sim float64 `json:"sim"`
}

// buildSimilarity resolves a SimilaritySpec against the products of a
// network.
func buildSimilarity(spec *SimilaritySpec, net *netmodel.Network) (*vulnsim.SimilarityTable, error) {
	if spec == nil || spec.Kind == "" || spec.Kind == "paper" {
		if spec != nil && (len(spec.Entries) > 0 || spec.Default != 0) {
			return nil, fmt.Errorf("similarity entries require kind \"custom\"")
		}
		return vulnsim.PaperSimilarity(), nil
	}
	if spec.Kind != "custom" {
		return nil, fmt.Errorf("unknown similarity kind %q (known: paper, custom)", spec.Kind)
	}
	products := net.Products()
	names := make([]string, len(products))
	for i, p := range products {
		names[i] = string(p)
	}
	table := vulnsim.NewSimilarityTable(names)
	if spec.Default != 0 {
		if err := table.SetDefault(spec.Default); err != nil {
			return nil, err
		}
	}
	for i, e := range spec.Entries {
		if err := table.Set(e.A, e.B, e.Sim, 0); err != nil {
			return nil, fmt.Errorf("similarity entry %d: %w", i, err)
		}
	}
	return table, nil
}

// CreateRequest is the body of POST /v1/networks.
type CreateRequest struct {
	// ID optionally names the session; omitted, the server assigns net-<n>.
	ID string `json:"id,omitempty"`
	// Spec describes the network (and optional constraints).
	Spec netmodel.Spec `json:"spec"`
	// Solver is a solver-registry name; default "trws".
	Solver string `json:"solver,omitempty"`
	// Seed drives every randomised stage of the session; with a fixed seed
	// the session's responses are deterministic.
	Seed int64 `json:"seed,omitempty"`
	// MaxIterations bounds the solver iterations (default 100, capped by the
	// server's Config.MaxIterations).
	MaxIterations int `json:"max_iterations,omitempty"`
	// Similarity selects the similarity table (default: the paper tables).
	Similarity *SimilaritySpec `json:"similarity,omitempty"`
}

// NetworkSummary is the session state common to several responses.
type NetworkSummary struct {
	ID             string  `json:"id"`
	Hosts          int     `json:"hosts"`
	Links          int     `json:"links"`
	Solver         string  `json:"solver"`
	Seed           int64   `json:"seed"`
	Version        uint64  `json:"version"`
	Energy         float64 `json:"energy"`
	AssignmentHash string  `json:"assignment_hash"`
}

// CreateResponse is the body of a successful POST /v1/networks.
type CreateResponse struct {
	NetworkSummary
	Iterations           int      `json:"iterations"`
	Converged            bool     `json:"converged"`
	WallMS               float64  `json:"wall_ms"`
	ConstraintViolations []string `json:"constraint_violations,omitempty"`
}

// ListResponse is the body of GET /v1/networks.
type ListResponse struct {
	Networks []NetworkSummary `json:"networks"`
}

// DeltaResponse is the body of a successful POST /v1/networks/{id}/deltas.
type DeltaResponse struct {
	ID             string  `json:"id"`
	Version        uint64  `json:"version"`
	Ops            int     `json:"ops"`
	Hosts          int     `json:"hosts"`
	Energy         float64 `json:"energy"`
	AssignmentHash string  `json:"assignment_hash"`
	// Incremental is false when the engine fell back to a cold solve;
	// Rebuilt reports a tombstone-pressure compacting rebuild.
	Incremental bool `json:"incremental"`
	Rebuilt     bool `json:"rebuilt,omitempty"`
	// DirtyNodes/LiveNodes describe the warm solve's frontier.
	DirtyNodes int `json:"dirty_nodes"`
	LiveNodes  int `json:"live_nodes"`
	// ChangedHosts counts the hosts that joined or changed a product relative
	// to the previous version (netmodel.Assignment.ChangedHosts); hosts that
	// left, or only dropped services, are not counted.
	ChangedHosts int `json:"changed_hosts"`
	// Coalesced is the number of deltas that landed together in the batch
	// this request was folded into (omitted when the delta landed alone).
	// Version reports the post-batch version either way.
	Coalesced int     `json:"coalesced,omitempty"`
	WallMS    float64 `json:"wall_ms"`
}

// AssignmentResponse is the body of GET /v1/networks/{id}/assignment.
type AssignmentResponse struct {
	ID             string               `json:"id"`
	Version        uint64               `json:"version"`
	Energy         float64              `json:"energy"`
	AssignmentHash string               `json:"assignment_hash"`
	Assignment     *netmodel.Assignment `json:"assignment"`
}

// MetricsResponse is the body of GET /v1/networks/{id}/metrics: the
// objective value plus the d1/d2/d3 diversity metrics of the current
// assignment.
type MetricsResponse struct {
	ID           string  `json:"id"`
	Version      uint64  `json:"version"`
	Hosts        int     `json:"hosts"`
	Links        int     `json:"links"`
	Energy       float64 `json:"energy"`
	PairwiseCost float64 `json:"pairwise_cost"`
	// D1 is the richness/Shannon-effective-number diversity (overall mean
	// over services).
	D1 float64 `json:"d1"`
	// D2 and D3 are the least and average attacking-effort metrics over
	// entry→target attack paths; Entry/Target echo the evaluated pair
	// (query parameters, defaulting to the first and last host).
	D2     float64         `json:"d2"`
	D3     float64         `json:"d3"`
	Entry  netmodel.HostID `json:"entry"`
	Target netmodel.HostID `json:"target"`
}

// AssessRequest is the body of POST /v1/networks/{id}/assess.
type AssessRequest struct {
	// Entry and Target bound the campaign; default first and last host.
	Entry  netmodel.HostID `json:"entry,omitempty"`
	Target netmodel.HostID `json:"target,omitempty"`
	// Knowledge is the attacker model: "none", "partial" or "full"
	// (default "full").
	Knowledge string `json:"knowledge,omitempty"`
	// PAvg is the base zero-day propagation rate (default 0.2).
	PAvg float64 `json:"p_avg,omitempty"`
	// Runs and MaxTicks bound the campaign (defaults 500 / 500, Runs capped
	// by the server's Config.MaxAssessRuns).
	Runs     int `json:"runs,omitempty"`
	MaxTicks int `json:"max_ticks,omitempty"`
	// Seed makes the campaign deterministic; default: the session seed.
	Seed *int64 `json:"seed,omitempty"`
	// Mode selects the engine: "tick" (default) or "event".
	Mode string `json:"mode,omitempty"`
	// ExploitServices restricts the attacker's zero-day exploits (default:
	// all services).
	ExploitServices []netmodel.ServiceID `json:"exploit_services,omitempty"`
}

// AssessResponse is the body of a successful POST /v1/networks/{id}/assess:
// the MTTC statistics of the Monte-Carlo campaign against the session's
// current assignment.
type AssessResponse struct {
	ID      string `json:"id"`
	Version uint64 `json:"version"`
	// Knowledge, Mode and Runs echo the executed campaign.
	Knowledge string `json:"knowledge"`
	Mode      string `json:"mode"`
	Runs      int    `json:"runs"`
	// MTTC statistics (ticks to compromise; failed runs count as MaxTicks).
	MTTC         float64 `json:"mttc"`
	MedianTTC    float64 `json:"median_ttc"`
	P90TTC       float64 `json:"p90_ttc"`
	StdTTC       float64 `json:"std_ttc"`
	SuccessRate  float64 `json:"success_rate"`
	MeanInfected float64 `json:"mean_infected"`
	WallMS       float64 `json:"wall_ms"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	// Status is "ok", or "degraded" while persistence is shedding writes.
	Status   string `json:"status"`
	Sessions int    `json:"sessions"`
	Draining bool   `json:"draining,omitempty"`
	// Counters are the server's backpressure counters since start: total
	// requests, 429 session-limit rejections, 503 drain rejections and 504
	// deadline hits.
	Counters Stats `json:"counters"`
	// Persistence reports the persistence plane (fsync policy, WAL lag,
	// snapshot and sync-error counters); omitted when divd runs memory-only.
	Persistence *wal.Stats `json:"persistence,omitempty"`
	// Replication reports the replication plane (role, follower lag,
	// anti-entropy state); omitted when the node neither replicates nor
	// follows.
	Replication *ReplicationStats `json:"replication,omitempty"`
}

// ReplicationStats is the healthz replication block.  Role and
// WritesRejected are filled by the server; the transport-side fields come
// from the Config.Replication callback (see cmd/divd).
type ReplicationStats struct {
	// Role is "primary" or "follower".
	Role string `json:"role"`
	// Primary is the primary's base URL (followers only).
	Primary string `json:"primary,omitempty"`
	// WritesRejected counts state-changing requests rejected with
	// not_primary since start.
	WritesRejected int64 `json:"writes_rejected,omitempty"`
	// Followers reports push-side lag per attached follower (primaries).
	Followers []FollowerLag `json:"followers,omitempty"`
	// AntiEntropy reports the pull loop's state (followers).
	AntiEntropy *AntiEntropyStats `json:"anti_entropy,omitempty"`
}

// FollowerLag is one attached follower's push-side replication lag.
type FollowerLag struct {
	URL string `json:"url"`
	// QueuedRecords/QueuedBytes measure the unsent push backlog.
	QueuedRecords int   `json:"queued_records"`
	QueuedBytes   int64 `json:"queued_bytes,omitempty"`
	// SentRecords counts envelopes delivered; DroppedRecords counts queue
	// overflow drops (repaired by anti-entropy).
	SentRecords    int64 `json:"sent_records"`
	DroppedRecords int64 `json:"dropped_records,omitempty"`
	// Errors counts failed pushes; LastError is the most recent failure.
	Errors    int64  `json:"errors,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// AntiEntropyStats is the follower's pull-loop state.
type AntiEntropyStats struct {
	// Rounds counts completed anti-entropy rounds; LastRoundUnixMS stamps
	// the most recent one.
	Rounds          int64 `json:"rounds"`
	LastRoundUnixMS int64 `json:"last_round_unix_ms,omitempty"`
	// InSync reports whether the last round ended with every session at the
	// primary's listed version and hash.
	InSync bool `json:"in_sync"`
	// RecordsApplied counts records applied through patch replay (push and
	// pull combined); RecordsFetched and SnapshotsFetched count pull-side
	// transfers; BadRecords counts records rejected before or during apply.
	RecordsApplied   int64 `json:"records_applied"`
	RecordsFetched   int64 `json:"records_fetched,omitempty"`
	SnapshotsFetched int64 `json:"snapshots_fetched,omitempty"`
	BadRecords       int64 `json:"bad_records,omitempty"`
	// PendingRecords counts buffered out-of-order records awaiting their
	// chain predecessors.
	PendingRecords int `json:"pending_records,omitempty"`
	// Errors counts failed rounds; LastError is the most recent failure.
	Errors    int64  `json:"errors,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// PromoteResponse is the body of a successful POST /v1/promote.
type PromoteResponse struct {
	// Role is the node's role after promotion (always "primary").
	Role string `json:"role"`
	// Sessions counts replica sessions made writable.
	Sessions int `json:"sessions"`
}

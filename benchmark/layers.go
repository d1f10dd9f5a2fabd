package main

// perLayer are the single-layer metrics of the traced run (-trace 1).  A
// timing is the p50 of its span over the traced phase unless stated
// otherwise.  What names the call measured and, after "->", the end-to-end
// metric @ workload the layer metric is expected to move.  A layer that is
// not in a workload's stack is measured on a probe fed the same ops, so
// every workload reports every metric.
var perLayer = []metricDef{
	{Name: "netmodel.spec_decode_ms", Unit: "ms", Better: "lower", What: "DecodeSpecStrict of a create's spec (decode, limits, build) -> create_p50_ms @ cold_large, churn_large"},
	{Name: "netmodel.delta_check_ms", Unit: "ms", Better: "lower", What: "DeltaDecoder.Strict().Next + BatchChecker.Check -> delta_p50_ms @ steady_small"},

	{Name: "core.optimize_ms", Unit: "ms", Better: "lower", What: "NewOptimizer + Optimize (cold build and solve) -> create_p50_ms @ churn_large, cold_large"},
	{Name: "core.optimize_iterations", Unit: "count", Better: "lower", What: "mean solver iterations of a cold Optimize -> create_p50_ms"},
	{Name: "core.apply_ms", Unit: "ms", Better: "lower", What: "ApplyDeltaBatch of one delta -> delta_p50_ms @ churn_large"},
	{Name: "core.reoptimize_ms", Unit: "ms", Better: "lower", What: "Reoptimize (greedy recolour + warm solve) -> delta_p50_ms, delta_p90_ms @ churn_large, cold_large"},
	{Name: "core.reoptimize_iterations", Unit: "count", Better: "lower", What: "mean solver iterations of a Reoptimize -> delta_p50_ms"},
	{Name: "core.dirty_nodes", Unit: "count", Better: "lower", What: "mean dirty frontier handed to the warm solve -> delta_p50_ms @ churn_large"},
	{Name: "core.rebuilds", Unit: "count", Better: "lower", What: "Reoptimize results with Rebuilt set (tombstone compaction) -> delta_p90_ms @ churn_large"},
	{Name: "core.snapshot_ms", Unit: "ms", Better: "lower", What: "Optimizer.Snapshot deep copy -> delta_p50_ms, alloc_kb_per_op @ churn_large"},

	{Name: "trws.cold_solve_ms", Unit: "ms", Better: "lower", What: "one solve.Solve(trws) on a UniformGraph of the workload's shape -> create_p50_ms @ churn_large"},
	{Name: "trws.sweeps", Unit: "count", Better: "lower", What: "iterations of that solve"},
	{Name: "multilevel.solve_ms", Unit: "ms", Better: "lower", What: "one multilevel SolveWithStats on the same graph -> create_p50_ms, delta_p50_ms @ cold_large"},
	{Name: "multilevel.coarsen_ms", Unit: "ms", Better: "lower", What: "hierarchy construction share of that solve"},
	{Name: "multilevel.levels", Unit: "count", Better: "lower", What: "hierarchy depth of that solve"},
	{Name: "multilevel.refined_nodes", Unit: "count", Better: "lower", What: "nodes repaired across its projection steps"},
	{Name: "coarsen.alloc_kb", Unit: "KiB", Better: "lower", What: "heap allocated by one coarsen.Aggregate of that graph to 512 nodes -> alloc_kb_per_op @ cold_large"},

	{Name: "serve.handler_create_ms", Unit: "ms", Better: "lower", What: "Handler().ServeHTTP of the create on the shadow server -> create_p50_ms"},
	{Name: "serve.handler_delta_ms", Unit: "ms", Better: "lower", What: "same for the delta -> delta_p50_ms"},
	{Name: "serve.handler_read_cached_ms", Unit: "ms", Better: "lower", What: "same for an assignment read served from the encoded cache -> read_cached_p50_ms @ steady_small"},
	{Name: "serve.handler_read_fresh_ms", Unit: "ms", Better: "lower", What: "same for the first read of a version (marshal + cache install) -> read_fresh_p50_ms @ churn_large"},
	{Name: "serve.handler_assess_ms", Unit: "ms", Better: "lower", What: "same for the assess -> assess_p50_ms"},
	{Name: "serve.handler_metrics_ms", Unit: "ms", Better: "lower", What: "same for the metrics read -> throughput_rps"},
	{Name: "serve.self_delta_ms", Unit: "ms", Better: "lower", What: "delta handler span minus the library spans it covers: slot, scheduler grant, journal, encode -> delta_p50_ms @ steady_small"},
	{Name: "serve.self_create_ms", Unit: "ms", Better: "lower", What: "create handler span minus the library spans it covers -> create_p50_ms @ steady_small"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", What: "assignment reads served from the encoded cache / assignment reads -> read_cached_p50_ms, throughput_rps @ steady_small"},
	{Name: "serve.cached_bytes", Unit: "B", Better: "lower", What: "bytes charged to the encoded-response cache at the end of the run"},
	{Name: "serve.read_resp_bytes", Unit: "B", Better: "lower", What: "mean assignment response size -> read_fresh_p50_ms @ churn_large"},
	{Name: "serve.rejected", Unit: "count", Better: "lower", What: "429 + 503 + 504 counted by the real server's Stats -> failed ops"},
	{Name: "serve.delta_p99_ms", Unit: "ms", Better: "lower", What: "p99 of the real delta over the traced phase (tail, informational)"},
	{Name: "serve.read_p99_ms", Unit: "ms", Better: "lower", What: "p99 of the real assignment read over the traced phase (tail, informational)"},

	{Name: "http.loopback_read_ms", Unit: "ms", Better: "lower", What: "real read span minus shadow handler span: client, loopback TCP, net/http -> read_cached_p50_ms, throughput_rps @ steady_small"},
	{Name: "http.loopback_delta_ms", Unit: "ms", Better: "lower", What: "real delta span minus shadow handler span -> delta_p50_ms @ steady_small"},

	{Name: "wal.encode_ms", Unit: "ms", Better: "lower", What: "Record.Encode of each delta's record -> delta_p50_ms @ durable_replica"},
	{Name: "wal.append_ms", Unit: "ms", Better: "lower", What: "Log.Append under fsync=always -> delta_p50_ms, delta_p90_ms @ durable_replica"},
	{Name: "wal.snapshot_ms", Unit: "ms", Better: "lower", What: "Log.WriteSnapshot compaction (every 64 records) -> delta_p90_ms @ durable_replica"},
	{Name: "wal.snapshots", Unit: "count", Better: "lower", What: "compactions written during the traced phase"},
	{Name: "wal.bytes_per_record", Unit: "B", Better: "lower", What: "mean encoded record size -> cpu_ms_per_op @ durable_replica"},
	{Name: "wal.write_amp", Unit: "ratio", Better: "lower", What: "bytes written to the data dir / delta request bytes -> cpu_ms_per_op @ durable_replica"},
	{Name: "wal.recover_ms_per_session", Unit: "ms", Better: "lower", What: "Manager.Recover of the probe data dir / sessions (restart cost)"},
	{Name: "wal.restore_ms_per_session", Unit: "ms", Better: "lower", What: "serve.Restore of each recovered session (restart cost)"},
	{Name: "wal.replay_records_per_s", Unit: "1/s", Better: "higher", What: "records replayed by that Recover / its wall time"},

	{Name: "replic.apply_ms", Unit: "ms", Better: "lower", What: "serve.ReplicaApply of each record on a probe follower -> cpu_ms_per_op, throughput_rps @ durable_replica"},
	{Name: "replic.visible_lag_ms", Unit: "ms", Better: "lower", What: "delta ack to the real follower publishing that version (0 without a follower) -> read_fresh_p50_ms @ durable_replica"},
	{Name: "replic.sync_round_ms", Unit: "ms", Better: "lower", What: "Follower.SyncOnce on a converged follower -> cpu_ms_per_op @ durable_replica"},
	{Name: "replic.catchup_ms", Unit: "ms", Better: "lower", What: "Follower.SyncOnce from an empty follower (setup_s @ durable_replica)"},
	{Name: "replic.symbols_per_diff", Unit: "ratio", Better: "lower", What: "coded symbols Reconcile needs for a diff of 8 in 1024 versions / 8"},
	{Name: "replic.push_dropped", Unit: "count", Better: "lower", What: "push-queue overflow drops on the real primary (0 without a follower)"},

	{Name: "attacksim.compile_ms", Unit: "ms", Better: "lower", What: "adversary.New + Compile of the assess campaign -> assess_p50_ms"},
	{Name: "attacksim.batch_ms", Unit: "ms", Better: "lower", What: "Campaign.RunBatch, 20 event-mode runs -> assess_p50_ms"},
	{Name: "metrics.eval_ms", Unit: "ms", Better: "lower", What: "PairwiseSimilarityCost + metrics.Evaluate -> throughput_rps @ steady_small"},

	{Name: "runtime.gc_count", Unit: "count", Better: "lower", What: "GC cycles during the untraced baseline phase -> cpu_ms_per_op @ churn_large, cold_large"},
	{Name: "runtime.gc_pause_max_ms", Unit: "ms", Better: "lower", What: "longest GC pause of that phase -> delta_p90_ms"},
	{Name: "runtime.heap_peak_mb", Unit: "MiB", Better: "lower", What: "largest HeapInuse seen at a cycle boundary of that phase"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", What: "mean real op latency in the traced phase over the untraced baseline phase, minus one"},
}

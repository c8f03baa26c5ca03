package main

// metric declares one reported metric. BENCHMARK.json repeats these
// declarations for the driver; bench_test.go keeps the two in step.
type metric struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only: the share of the baseline value it may worsen by
	// decile marks a timing: its guarded value is not the median over
	// episodes but the decile on the better side (the 90th percentile of
	// a rate, the 10th of a time). Whatever else the box does only ever
	// slows an episode, for seconds at a time, so the median follows how
	// much of a run was disturbed and the better decile does not until
	// nine tenths of it were. Over 12 interleaved runs per workload the
	// spread (range ÷ median) of the median was 20-32 % on the CPU-bound
	// workloads, of the better quartile 10-30 %, of the better decile
	// 2-25 % (README.md). Counts repeat exactly and keep the median.
	decile bool
}

// endToEnd is what a user of the system sees, the same set on every
// workload. failed_ops_ratio is not in the list because a guarded
// metric may never be 0: it is the result line's failed ÷ attempted,
// and any failed op fails the command.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25, true},
	{"committed_ops_per_s", "1/s", "higher", 0.20, true},
	{"commit_latency_p50_us", "us", "lower", 0.20, true},
	{"commit_latency_p90_us", "us", "lower", 0.20, true},
	{"deny_commit_p50_us", "us", "lower", 0.20, true},
	{"cpu_us_per_op", "us", "lower", 0.20, true},
	{"allocs_per_op", "count", "lower", 0.03, false},
	{"retained_bytes_per_op", "B", "lower", 0.05, false},
	{"reexec_per_op", "count", "lower", 0.03, false},
}

// l declares a per-layer metric: no bound, reported as its median.
func l(name, unit, better string) metric { return metric{name: name, unit: unit, better: better} }

// perLayer is the cost table of single layers; the module name is the
// layer. README.md says which end-to-end metric each should move.
var perLayer = []metric{
	// engine: spans around each engine.Proc call the bodies make.
	l("engine.send_ns_p50", "ns", "lower"), l("engine.send_ns_p99", "ns", "lower"),
	l("engine.newaid_ns_p50", "ns", "lower"),
	l("engine.guess_ns_p50", "ns", "lower"), l("engine.guess_ns_p99", "ns", "lower"),
	l("engine.affirm_ns_p50", "ns", "lower"), l("engine.deny_ns_p50", "ns", "lower"),
	l("engine.effect_ns_p50", "ns", "lower"),
	l("engine.recv_wait_ns_p50", "ns", "lower"), l("engine.recv_settled_wait_ns_p50", "ns", "lower"),
	l("engine.rollback_resume_ns_p50", "ns", "lower"),
	l("engine.commit_latency_p99_us", "us", "lower"), l("engine.commit_latency_p999_us", "us", "lower"),
	l("engine.span_residual_pct", "%", "lower"),
	// engine: counts from obs.Snapshot.
	l("engine.replayed_entries_per_op", "count", "lower"), l("engine.rollbacks_per_op", "count", "lower"),
	l("engine.max_replay_depth", "count", "lower"), l("engine.checkpoint_resumes_per_rollback", "count", "higher"),
	l("engine.max_queue_depth", "count", "lower"), l("engine.max_sched_heap", "count", "lower"),
	l("engine.classify_hit_ratio", "ratio", "higher"), l("engine.alloc_bytes_per_op", "B", "lower"),
	// engine: probes.
	l("engine.deliver_ns_per_msg", "ns", "lower"), l("engine.deliver_allocs_per_msg", "count", "lower"),
	l("engine.deliver_bytes_per_msg", "B", "lower"),
	l("engine.guess_affirm_ns", "ns", "lower"), l("engine.guess_affirm_allocs", "count", "lower"),
	l("engine.spawn_ns", "ns", "lower"),
	// tracker: probes on a bare tracker, and counts from the runs.
	l("tracker.guess_ns", "ns", "lower"), l("tracker.guess_allocs", "count", "lower"),
	l("tracker.affirm_ns", "ns", "lower"), l("tracker.affirm_allocs", "count", "lower"),
	l("tracker.deny_ns", "ns", "lower"), l("tracker.deliver_ns", "ns", "lower"),
	l("tracker.classify_warm_ns", "ns", "lower"), l("tracker.classify_cold_ns", "ns", "lower"),
	l("tracker.guess_depth64_ns", "ns", "lower"),
	l("tracker.escalations_per_op", "count", "lower"), l("tracker.rolled_back_intervals_per_op", "count", "lower"),
	l("tracker.shard_imbalance", "ratio", "lower"),
	// sets, vclock: probes.
	l("sets.add_ns", "ns", "lower"), l("sets.range_ns_n64", "ns", "lower"),
	l("sets.range_allocs_n64", "count", "lower"), l("sets.union_ns_n64", "ns", "lower"),
	l("vclock.merge_ns_n3", "ns", "lower"),
	// wire: codec and relay probes, and counts from obs.WirePeers.
	l("wire.encode_payload_ns", "ns", "lower"), l("wire.encode_payload_allocs", "count", "lower"),
	l("wire.decode_payload_ns", "ns", "lower"), l("wire.decode_payload_allocs", "count", "lower"),
	l("wire.append_frame_ns", "ns", "lower"), l("wire.decode_body_ns", "ns", "lower"),
	l("wire.frame_bytes", "B", "lower"),
	l("wire.hop_ns_p50", "ns", "lower"), l("wire.hop_ns_p99", "ns", "lower"),
	l("wire.hop_vs_inproc", "ratio", "lower"),
	l("wire.frames_out_per_op", "count", "lower"), l("wire.bytes_out_per_op", "B", "lower"),
	l("wire.verdict_broadcasts_per_op", "count", "lower"), l("wire.redeliveries_per_op", "count", "lower"),
	l("wire.mesh_start_ms", "ms", "lower"), l("wire.barrier_ms", "ms", "lower"),
	// rpc: the callstream jobs streamed and synchronous.
	l("rpc.streamcall_ns_p50", "ns", "lower"), l("rpc.call_ns_p50", "ns", "lower"),
	l("rpc.stream_vs_sync_speedup", "ratio", "higher"),
	// obs: what tracing itself costs.
	l("obs.traced_overhead_pct", "%", "lower"), l("obs.events_dropped", "count", "lower"),
}

// Package experiments implements the reproduction harness: one runner per
// experiment in EXPERIMENTS.md (E1–E15), each regenerating a table whose
// shape is compared against the paper's claims. The hopebench command
// renders these tables; the top-level benchmark suite times the same
// workloads at testing.B scale.
//
// The runners define no RPC or wire workload of their own. E1, E3, E10
// and E15 are parameter sweeps over internal/scenario's print and echo
// workloads, E12 and E13 observe its registered scenarios, and E14's
// wired ring is a client of its per-node runner — so what an experiment
// times is what that package's byte-identical oracles check. The rest
// build their subject directly: netsim (E2), rollback chains and
// history windows (E4, E4b), tracker and delivery probes (E5, E11),
// timewarp (E6), occ (E7), recovery (E8), Loop compaction (E9).
//
// The paper (PODC 1995) has no numbered result tables — its quantitative
// artifacts are the §3.1 latency arithmetic, the Figures 1–2 program
// transformation, and the §7 "up to 80% gains" Call Streaming claim, plus
// the formal theorems (checked by internal/check, surfaced here as T1–T6
// via the hopecheck command). E4–E8 evaluate the systems the paper
// motivates (rollback, tracking overhead, Time Warp, replication,
// recovery) so the library's behavior is characterized the way the
// HPDC-4 companion paper would have; E9–E15 ablate and characterize
// what this repository added on top.
package experiments

import "io"

// Experiment is one runnable experiment.
type Experiment struct {
	ID    string
	Title string
	// Run executes the experiment, rendering its table(s) to w.
	Run func(w io.Writer) error
}

// All returns every experiment in ID order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Call Streaming vs synchronous RPC (Figures 1–2, §7 claim)", Run: E1CallStreaming},
		{ID: "E2", Title: "§3.1 latency arithmetic (virtual-time network)", Run: E2LatencyArithmetic},
		{ID: "E3", Title: "Guess-accuracy sweep and optimism crossover", Run: E3AccuracySweep},
		{ID: "E4", Title: "Rollback cascade cost vs speculation depth", Run: E4RollbackDepth},
		{ID: "E5", Title: "Dependency-tracking overhead (§7 non-blocking claim)", Run: E5TrackerOverhead},
		{ID: "E6", Title: "Time Warp on HOPE (related-work claim)", Run: E6TimeWarp},
		{ID: "E7", Title: "Optimistic replicated data (§7 future work)", Run: E7Replication},
		{ID: "E8", Title: "Optimistic message-logging recovery (related-work claim)", Run: E8Recovery},
		{ID: "E9", Title: "Ablation: Loop log compaction (§7 checkpointing future work)", Run: E9LoopCompaction},
		{ID: "E10", Title: "Ablation: WorryWart verifier pool size", Run: E10VerifierPool},
		{ID: "E11", Title: "Tracker scaling: epoch-cached classification under fanout", Run: E11TrackerScaling},
		{ID: "E12", Title: "Speculation lifecycle via obs (affirm/deny ratio, replay depth)", Run: E12SpeculationObservability},
		{ID: "E13", Title: "Fault-storm transparency (Theorems 5.1–6.3 as an executable oracle)", Run: E13FaultStorm},
		{ID: "E14", Title: "Wire transport hop latency (loopback TCP vs in-process)", Run: E14WireLatency},
		{ID: "E15", Title: "Adaptive admission vs static policies under shifting accuracy", Run: E15AdaptiveAdmission},
	}
}

// render writes a finished table.
func render(w io.Writer, t *table) error {
	t.Render(w)
	return nil
}

// Package experiments implements the reproduction harness: one runner per
// experiment table in EXPERIMENTS.md, rendered by the hopebench command
// and timed at testing.B scale by the top-level benchmark suite.
//
// The paper (PODC 1995) has no numbered result tables. Its quantitative
// artifacts are the §3.1 latency arithmetic (E2), the Figures 1–2
// transformation with the §7 "up to 80% gains" Call Streaming claim
// (E1), and the theorems (checked by internal/check, surfaced as T1–T6
// by hopecheck). E3 and E6–E10 compare the substrates the paper
// motivates with their pessimistic baselines. The runners define no RPC
// or wire workload of their own: E1, E3 and E10 sweep internal/scenario's
// print and echo workloads; E2 is link arithmetic in closed form; the
// rest build their subject directly — timewarp (E6), occ (E7), recovery
// (E8), Loop (E9).
//
// A table guards nothing. Each claim has one oracle, named in the ledger
// at the top of EXPERIMENTS.md; the shape tests among them live in this
// package's _test.go files with the harnesses only they use.
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
		{ID: "E2", Title: "§3.1 latency arithmetic (closed form)", Run: E2LatencyArithmetic},
		{ID: "E3", Title: "Guess-accuracy sweep and optimism crossover", Run: E3AccuracySweep},
		{ID: "E6", Title: "Time Warp on HOPE (related-work claim)", Run: E6TimeWarp},
		{ID: "E7", Title: "Optimistic replicated data (§7 future work)", Run: E7Replication},
		{ID: "E8", Title: "Optimistic message-logging recovery (related-work claim)", Run: E8Recovery},
		{ID: "E9", Title: "Ablation: Loop log compaction (§7 checkpointing future work)", Run: E9LoopCompaction},
		{ID: "E10", Title: "Ablation: WorryWart verifier pool size", Run: E10VerifierPool},
	}
}

// render writes a finished table.
func render(w io.Writer, t *table) error {
	t.Render(w)
	return nil
}

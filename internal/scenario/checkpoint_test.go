package scenario

import (
	"testing"

	"hope/internal/engine"
	"hope/internal/obs"
	"hope/internal/testutil"
)

// runSpec runs one registered workload at the given scale and returns
// its committed output.
func runSpec(t *testing.T, spec Spec, scale int, opts ...engine.Option) string {
	t.Helper()
	buf := &testutil.SyncBuffer{}
	if _, err := spec.Run(scale, append(opts, engine.WithOutput(buf))...); err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	return buf.String()
}

// smallScale maps each workload to a scale small enough to run three
// times per test without dominating the suite.
func smallScale(name string) int {
	switch name {
	case "callstreaming":
		return 40
	case "echo":
		return 32
	case "fanout":
		return 16
	case "timewarp":
		return 4
	case "storm":
		return 8
	case "journal":
		return 3
	}
	return 0
}

// requireBaseline keeps the all-scenario differentials from comparing
// "" with "": every workload that prints must have committed something.
// Fanout and Time Warp exercise delivery and rollback without printing.
func requireBaseline(t *testing.T, name, baseline string) {
	t.Helper()
	if baseline == "" && name != "fanout" && name != "timewarp" {
		t.Fatalf("%s committed no output: the differential has nothing to compare", name)
	}
}

// TestScenarioCheckpointDifferential is the checkpoint/replay
// equivalence check: for every registered workload, the committed
// output with checkpoints disabled, taken at every logged event, and
// taken at a coarse cadence must be byte-identical. Checkpoints change
// where a rollback resumes, never what commits.
func TestScenarioCheckpointDifferential(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			scale := smallScale(spec.Name)
			want := runSpec(t, spec, scale)
			requireBaseline(t, spec.Name, want)
			for _, every := range []int{1, 8} {
				got := runSpec(t, spec, scale, engine.WithCheckpointEvery(every))
				if got != want {
					t.Fatalf("WithCheckpointEvery(%d): committed output diverged\nwant:\n%s\ngot:\n%s",
						every, want, got)
				}
			}
		})
	}
}

// TestJournalCheckpointEngages guards the differential against
// vacuity: at the cadence the soak uses, the journal workload must
// actually take checkpoints and resume from them, and the resumes must
// shorten replay relative to the checkpoint-free run.
func TestJournalCheckpointEngages(t *testing.T) {
	run := func(opts ...engine.Option) obs.MetricsSnapshot {
		o := obs.New(obs.WithEventCapacity(0))
		buf := &testutil.SyncBuffer{}
		if _, err := Journal(3, append(opts, engine.WithOutput(buf), engine.WithObserver(o))...); err != nil {
			t.Fatalf("Journal: %v", err)
		}
		return o.Metrics().Snapshot()
	}
	cp := run(engine.WithCheckpointEvery(2))
	if cp.Checkpoints == 0 {
		t.Fatal("journal took no checkpoints at cadence 2")
	}
	if cp.Resumes == 0 {
		t.Fatal("journal rollbacks never resumed from a checkpoint")
	}
	plain := run()
	if plain.Resumes != 0 {
		t.Fatalf("checkpoint-free run reported %d resumes", plain.Resumes)
	}
	if cp.ReplayedEnts >= plain.ReplayedEnts {
		t.Fatalf("checkpoints did not shorten replay: %d entries with, %d without",
			cp.ReplayedEnts, plain.ReplayedEnts)
	}
}

// TestJournalCheckpointFaultSoak crosses the two recovery mechanisms:
// every seed runs the journal workload under an aggressive fault plan
// (crashes included) with checkpointing on, and its committed output
// must match the fault-free, checkpoint-free baseline byte for byte.
// Crash restarts restore from checkpoints here, so the test exercises
// the restore path under exactly the conditions it exists for.
func TestJournalCheckpointFaultSoak(t *testing.T) {
	const windows = 3
	want := runSpec(t, Spec{Name: "journal", Run: Journal}, windows)
	if want == "" {
		t.Fatal("fault-free Journal produced no output")
	}
	seeds := 32
	if testing.Short() {
		seeds = 8
	}
	injected := int64(0)
	resumes := int64(0)
	for seed := 0; seed < seeds; seed++ {
		plan := aggressivePlan(int64(seed))
		o := obs.New(obs.WithEventCapacity(0))
		buf := &testutil.SyncBuffer{}
		if _, err := Journal(windows, engine.WithOutput(buf), engine.WithFaults(plan),
			engine.WithCheckpointEvery(2), engine.WithObserver(o)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := buf.String(); got != want {
			t.Fatalf("seed %d (%s): committed output diverged from fault-free run\ninjected: %v\nwant:\n%s\ngot:\n%s",
				seed, plan, plan.Injections(), want, got)
		}
		injected += plan.Total()
		resumes += o.Metrics().Snapshot().Resumes
	}
	if injected == 0 {
		t.Fatal("soak injected no faults — the oracle checked nothing")
	}
	if resumes == 0 {
		t.Fatal("no run resumed from a checkpoint — the soak never exercised restore")
	}
	t.Logf("%d seeds, %d faults injected, %d checkpoint resumes, output stable", seeds, injected, resumes)
}

// TestStormCheckpointFaultSoak re-runs the storm oracle with
// checkpointing enabled under faults: the Loop conversion means crash
// recovery mid-job can restore from a checkpoint, and the committed
// output must still match the fault-free baseline.
func TestStormCheckpointFaultSoak(t *testing.T) {
	const jobs = 12
	want := runStorm(t, jobs)
	seeds := 8
	if testing.Short() {
		seeds = 4
	}
	injected := int64(0)
	for seed := 0; seed < seeds; seed++ {
		plan := aggressivePlan(int64(100 + seed))
		got := runStorm(t, jobs, engine.WithFaults(plan), engine.WithCheckpointEvery(4))
		if got != want {
			t.Fatalf("seed %d (%s): committed output diverged\ninjected: %v",
				100+seed, plan, plan.Injections())
		}
		injected += plan.Total()
	}
	if injected == 0 {
		t.Fatal("soak injected no faults")
	}
}

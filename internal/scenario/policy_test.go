package scenario

import (
	"testing"
	"time"

	"hope/internal/engine"
	"hope/internal/obs"
	"hope/internal/policy"
	"hope/internal/testutil"
)

// Speculation-policy differential and soak: the admission controller may
// change how fast speculation settles — never what commits. These are
// the policy analogues of the shard differential and fault soak above.

// aggressiveAdaptive builds an adaptive controller tuned to intervene
// constantly: an unrealistically high crossover, a tiny evidence floor,
// and a short wait budget, so runs exercise throttling, disabling,
// probes, pessimistic verdicts, and budget-timeout fallbacks all at once.
func aggressiveAdaptive() *policy.Controller {
	return policy.NewAdaptive(policy.Config{
		Crossover:  0.95,
		Hysteresis: 0.02,
		Window:     8,
		MinSamples: 2,
		ProbeEvery: 4,
		WaitBudget: 2 * time.Millisecond,
	})
}

// TestScenarioPolicyDifferential runs every scenario workload under
// always-on (the pre-policy guess path), an aggressive adaptive
// controller, and always-off, and requires byte-identical committed
// output: a pessimistic verdict takes exactly the branch a denial's
// rollback would replay, so admission control is invisible in results.
func TestScenarioPolicyDifferential(t *testing.T) {
	scales := map[string]int{
		"callstreaming": 60,
		"echo":          48,
		"fanout":        12,
		// Time Warp resolves assumptions only as virtual time advances,
		// so denied admissions ride their wait budget often — keep the
		// population small.
		"timewarp":  4,
		"storm":     8,
		"stormwire": 4,
		"journal":   4,
	}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			scale, ok := scales[spec.Name]
			if !ok {
				t.Fatalf("scenario %q has no differential scale — add it", spec.Name)
			}
			run := func(opts ...engine.Option) string {
				t.Helper()
				buf := &testutil.SyncBuffer{}
				if _, err := spec.Run(scale, append(opts, engine.WithOutput(buf))...); err != nil {
					t.Fatalf("%s: %v", spec.Name, err)
				}
				return buf.String()
			}
			want := run()
			requireBaseline(t, spec.Name, want)
			if again := run(); again != want {
				t.Skipf("%s output is not run-deterministic; policy differential needs a fixed baseline", spec.Name)
			}
			if got := run(engine.WithSpeculation(aggressiveAdaptive())); got != want {
				t.Fatalf("adaptive committed output diverged from always-on\nwant:\n%s\ngot:\n%s", want, got)
			}
			off := policy.AlwaysOff(policy.Config{WaitBudget: 2 * time.Millisecond})
			if got := run(engine.WithSpeculation(off)); got != want {
				t.Fatalf("always-off committed output diverged from always-on\nwant:\n%s\ngot:\n%s", want, got)
			}
		})
	}
}

// TestStormAdaptiveFaultSoak is the accuracy-storm soak: 32 seeds of the
// aggressive fault plan with the adaptive controller active, each run's
// committed output compared byte-for-byte against the fault-free
// always-on baseline. Crashes and rollbacks land while sites are
// throttling, disabling, and probing — recovery must replay every
// logged admission verdict rather than re-consult the controller, or
// output diverges. The deny counter check keeps the soak honest: the
// controller must actually have intervened.
func TestStormAdaptiveFaultSoak(t *testing.T) {
	const jobs = 12
	want := runStorm(t, jobs)
	if want == "" {
		t.Fatal("fault-free Storm produced no output")
	}
	seeds := 32
	if testing.Short() {
		seeds = 8
	}
	var denies, timeouts, injected int64
	for seed := 0; seed < seeds; seed++ {
		o := obs.New(obs.WithEventCapacity(0))
		// Storm guesses are 75% accurate by construction; a 0.9
		// crossover keeps the shared worker site under the bar so every
		// seed sees admission denials.
		ctl := policy.NewAdaptive(policy.Config{
			Crossover:  0.9,
			Hysteresis: 0.02,
			Window:     8,
			MinSamples: 2,
			ProbeEvery: 4,
			WaitBudget: 50 * time.Millisecond,
		})
		plan := aggressivePlan(int64(seed))
		got := runStorm(t, jobs,
			engine.WithObserver(o), engine.WithSpeculation(ctl), engine.WithFaults(plan))
		if got != want {
			t.Fatalf("seed %d (%s): adaptive faulted output diverged\ninjected: %v\nwant:\n%s\ngot:\n%s",
				seed, plan, plan.Injections(), want, got)
		}
		m := o.Snapshot().Metrics
		denies += m.PolicyDenies
		timeouts += m.PolicyWaitTimeouts
		injected += plan.Total()
	}
	if injected == 0 {
		t.Fatal("soak injected no faults — the oracle checked nothing")
	}
	if denies == 0 {
		t.Fatal("controller never denied admission — the soak exercised no policy decisions")
	}
	t.Logf("%d seeds: %d faults injected, %d admissions denied, %d wait timeouts, output stable",
		seeds, injected, denies, timeouts)
}

package experiments

import (
	"fmt"
	"io"
	"time"

	"hope/internal/engine"
	"hope/internal/fault"
	"hope/internal/obs"
	"hope/internal/scenario"
	"hope/internal/testutil"
)

// E13FaultStorm is the fault-transparency oracle as an experiment: the
// storm workload runs once fault-free to fix the expected committed
// output, then once per seed under an aggressive deterministic fault
// plan (crashes with restart-by-replay, drops, duplicates, delays,
// resolution stalls). The paper's Theorems 5.1–6.3 say committed output
// depends only on the program, not the interleaving — so every faulted
// run must reproduce the baseline byte-for-byte while the fault columns
// show how much abuse each seed actually delivered.
func E13FaultStorm(w io.Writer) error {
	const (
		jobs  = 16
		seeds = 8
	)
	run := func(plan *fault.Plan) (string, *obs.Metrics, time.Duration, error) {
		var buf testutil.SyncBuffer
		o := obs.New(obs.WithEventCapacity(0))
		opts := []engine.Option{engine.WithOutput(&buf), engine.WithObserver(o)}
		if plan != nil {
			opts = append(opts, engine.WithFaults(plan))
		}
		res, err := scenario.Storm(jobs, opts...)
		if err != nil {
			return "", nil, 0, err
		}
		return buf.String(), o.Metrics(), res.Elapsed, nil
	}

	want, _, base, err := run(nil)
	if err != nil {
		return err
	}

	t := newTable("E13: fault-storm transparency (committed output vs fault-free run)",
		"seed", "crash", "drop", "dup", "delay", "stall", "rollbacks", "output", "elapsed")
	t.AddRow("none", 0, 0, 0, 0, 0, 0, "baseline", base)
	for seed := int64(0); seed < seeds; seed++ {
		plan := fault.New(fault.Config{
			Seed:       seed,
			Crash:      0.02,
			MaxCrashes: 4,
			Drop:       0.2,
			Dup:        0.2,
			Delay:      0.3,
			MaxDelay:   200 * time.Microsecond,
			Stall:      0.3,
			MaxStall:   300 * time.Microsecond,
		})
		got, m, elapsed, err := run(plan)
		if err != nil {
			return fmt.Errorf("seed %d (%s): %w", seed, plan, err)
		}
		verdict := "identical"
		if got != want {
			verdict = "DIVERGED"
		}
		c := plan.Counts()
		t.AddRow(seed, c[fault.Crash], c[fault.Drop], c[fault.Dup],
			c[fault.Delay], c[fault.Stall], m.Rollbacks.Load(), verdict, elapsed)
		if got != want {
			render(w, t)
			return fmt.Errorf("seed %d (%s): committed output diverged from fault-free run", seed, plan)
		}
	}
	return render(w, t)
}

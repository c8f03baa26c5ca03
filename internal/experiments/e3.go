package experiments

import (
	"fmt"
	"io"
	"time"

	"hope/internal/engine"
	"hope/internal/scenario"
)

// echoMakespan runs scenario.Echo once and returns its settled
// makespan.
func echoMakespan(trace []bool, latency time.Duration, mode scenario.Mode, verifiers int, opts ...engine.Option) (time.Duration, error) {
	res, err := scenario.Echo(trace, latency, mode, verifiers, opts...)
	return res.Elapsed, err
}

// E3AccuracySweep measures the optimism trade-off at the core of §1: the
// streamed gain as a function of guess accuracy, exposing the crossover
// below which rollback churn costs more than the latency saved. With the
// §5.6 conservative approximation, a misprediction also discards the
// speculative tail issued after it, so the effective penalty grows faster
// than (1 - accuracy) — the crossover sits well above zero accuracy.
func E3AccuracySweep(w io.Writer) error {
	const calls = 24
	const latency = 2 * time.Millisecond
	t := newTable(
		fmt.Sprintf("E3: accuracy sweep (%d calls, %v one-way latency)", calls, latency),
		"accuracy", "sync", "optimistic server", "speedup", "ordered server", "speedup")
	for _, acc := range []float64{1.0, 0.9, 0.75, 0.5, 0.25, 0.0} {
		trace := scenario.AccuracyTrace(calls, acc, 11)
		syncT, err := echoMakespan(trace, latency, scenario.Sync, 0)
		if err != nil {
			return err
		}
		optT, err := echoMakespan(trace, latency, scenario.Optimistic, 0)
		if err != nil {
			return err
		}
		ordT, err := echoMakespan(trace, latency, scenario.Ordered, 0)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("%.2f", acc), syncT,
			optT, speedup(syncT, optT),
			ordT, speedup(syncT, ordT))
	}
	return render(w, t)
}

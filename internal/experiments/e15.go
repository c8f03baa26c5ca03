package experiments

import (
	"fmt"
	"io"
	"time"

	"hope/internal/engine"
	"hope/internal/policy"
	"hope/internal/scenario"
)

// e15Trace builds the adversarial accuracy-shifting trace: phases of
// perfectly predictable calls alternating with phases where every
// prediction is wrong. Static policies lose one way or the other —
// always-on pays rollback churn and discarded speculative tails in the
// wrong phases, always-off pays a full round trip per call in the right
// ones. The adaptive controller re-estimates each phase from its own
// verdicts and switches sides.
func e15Trace(phases []float64, perPhase int) []bool {
	trace := make([]bool, 0, len(phases)*perPhase)
	for _, acc := range phases {
		for i := 0; i < perPhase; i++ {
			// Deterministic within-phase pattern (acc is 0 or 1 in the
			// adversarial trace; fractional values spread evenly).
			trace = append(trace, float64(i%perPhase) < acc*float64(perPhase))
		}
	}
	return trace
}

// runE15 replays the trace through streamed echo calls at the
// optimistic server under one speculation controller (nil = always-on),
// returning the settled makespan of the committed run.
func runE15(trace []bool, latency time.Duration, ctl *policy.Controller) (time.Duration, error) {
	return echoMakespan(trace, latency, scenario.Optimistic, 0, engine.WithSpeculation(ctl))
}

// e15Adaptive is the controller configuration under test: a short
// window so the estimate tracks phase shifts within a few calls, sparse
// probing so a disabled site doesn't bleed rollbacks re-testing a phase
// that hasn't ended, and a wait budget comfortably above the round
// trip, so a denied call degrades to a synchronous one instead of
// timing out into speculation.
func e15Adaptive(latency time.Duration) *policy.Controller {
	return policy.NewAdaptive(policy.Config{
		Window:     8,
		MinSamples: 4,
		ProbeEvery: 8,
		WaitBudget: 50 * latency,
	})
}

// E15AdaptiveAdmission measures the tentpole claim of the adaptive
// optimism controller: on a workload whose guess accuracy shifts
// adversarially between phases, closing the loop from observed per-site
// accuracy to admission policy beats both static policies on
// committed-output throughput. Always-on wins the accurate phases but
// bleeds rollback churn in the wrong ones; always-off is immune to churn
// but forfeits pipelining everywhere; adaptive converges to whichever is
// better per phase, paying only the re-estimation lag at each shift.
func E15AdaptiveAdmission(w io.Writer) error {
	const (
		perPhase = 32
		latency  = 2 * time.Millisecond
	)
	phases := []float64{1, 0, 1, 0, 1, 0}
	trace := e15Trace(phases, perPhase)
	calls := len(trace)

	onT, err := runE15(trace, latency, nil)
	if err != nil {
		return err
	}
	offT, err := runE15(trace, latency, policy.AlwaysOff(policy.Config{WaitBudget: 50 * latency}))
	if err != nil {
		return err
	}
	adT, err := runE15(trace, latency, e15Adaptive(latency))
	if err != nil {
		return err
	}

	throughput := func(d time.Duration) string {
		return fmt.Sprintf("%.0f calls/s", float64(calls)/d.Seconds())
	}
	bestStatic := onT
	if offT < bestStatic {
		bestStatic = offT
	}

	t := newTable(
		fmt.Sprintf("E15: adaptive admission under shifting accuracy (%d calls, %d-call phases alternating 100%%/0%%, %v one-way latency)",
			calls, perPhase, latency),
		"policy", "makespan", "committed throughput", "vs always-on", "vs always-off")
	t.AddRow("always-on", onT, throughput(onT), "1.00x", speedup(offT, onT))
	t.AddRow("always-off", offT, throughput(offT), speedup(onT, offT), "1.00x")
	t.AddRow("adaptive", adT, throughput(adT), speedup(onT, adT), speedup(offT, adT))
	t.AddRow("adaptive vs best static", "", "", speedup(bestStatic, adT), "")
	return render(w, t)
}

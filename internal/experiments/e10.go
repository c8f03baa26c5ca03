package experiments

import (
	"io"
	"time"

	"hope/internal/scenario"
)

// E10VerifierPool ablates the WorryWart pool size (DESIGN.md finding 1):
// with one verifier, verification serializes behind each in-flight call's
// round trip; with a pool, verifications overlap. Measured as settled
// makespan of an accurate streamed call burst.
func E10VerifierPool(w io.Writer) error {
	const calls = 24
	const latency = 2 * time.Millisecond
	trace := scenario.AccuracyTrace(calls, 1.0, 5)

	t := newTable("E10 (ablation): WorryWart pool size, 24 accurate streamed calls",
		"verifiers", "settled makespan")
	for _, pool := range []int{1, 2, 8, 24} {
		elapsed, err := echoMakespan(trace, latency, scenario.Optimistic, pool)
		if err != nil {
			return err
		}
		t.AddRow(pool, elapsed)
	}
	return render(w, t)
}

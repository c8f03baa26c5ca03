package experiments

import (
	"fmt"
	"io"
	"time"

	"hope/internal/engine"
	"hope/internal/obs"
	"hope/internal/scenario"
)

// E12SpeculationObservability characterizes the speculation lifecycle of
// the two flagship workloads through the obs subsystem: how optimism
// resolves (affirm:deny ratio), how much work a wrong guess unwinds
// (rollback count and replay depth), and how long speculation stays open
// (guess→settlement latency). This is the measured affirm/deny
// probability data the probabilistic-speculation line (Di Pierro &
// Wiklicky, PAPERS.md) argues policy should be driven by — now
// observable at runtime rather than reconstructed post hoc.
func E12SpeculationObservability(w io.Writer) error {
	t := newTable("E12: speculation lifecycle via obs (affirm/deny ratio, replay depth)",
		"workload", "guesses", "affirm", "deny", "affirm:deny",
		"rollbacks", "replay mean/max", "lifetime mean")
	runs := []struct {
		name  string
		run   func(int, ...engine.Option) (scenario.Result, error)
		scale int
	}{
		{"callstreaming", scenario.CallStreaming, 120},
		{"timewarp", scenario.TimeWarp, 8},
	}
	for _, r := range runs {
		o := obs.New(obs.WithEventCapacity(0)) // metrics only
		if _, err := r.run(r.scale, engine.WithObserver(o)); err != nil {
			return err
		}
		m := o.Metrics().Snapshot()
		affirms := m.Affirms + m.SpecAffirms
		denies := m.Denies + m.SpecDenies
		ratio := "∞"
		if denies > 0 {
			ratio = fmt.Sprintf("%.2f", float64(affirms)/float64(denies))
		}
		replay := "0/0"
		if m.ReplayDepth.Count > 0 {
			replay = fmt.Sprintf("%.0f/%d",
				float64(m.ReplayDepth.Sum)/float64(m.ReplayDepth.Count), m.ReplayDepth.Max)
		}
		var lifetime any = "-"
		if m.SpecLifetime.Count > 0 {
			lifetime = time.Duration(m.SpecLifetime.Mean())
		}
		t.AddRow(r.name, m.GuessesOpened, affirms, denies, ratio,
			m.Rollbacks, replay, lifetime)
	}
	return render(w, t)
}

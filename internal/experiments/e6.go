package experiments

import (
	"fmt"
	"io"
	"time"

	"hope/internal/engine"
	"hope/internal/timewarp"
)

// E6TimeWarp evaluates the related-work claim that Time Warp is one HOPE
// assumption away (§2): the PHOLD simulation runs on goroutine LPs with
// per-event order assumptions, and must commit exactly the sequential
// baseline's event multiset. The table reports rollback and straggler
// churn as the LP count grows.
//
// Expected shape (and an honest reproduction of the paper's own §7
// caveat): correctness holds at every LP count, but the general-purpose
// dependency tracking is far too heavy for fine-grained events — the
// paper's future work names exactly this ("optimize the HOPE dependency
// tracking algorithms … broadening the applicability of HOPE to
// finer-grained problems").
func E6TimeWarp(w io.Writer) error {
	t := newTable("E6: Time Warp on HOPE (PHOLD, population 6, horizon 150)",
		"LPs", "events", "matches seq", "rollbacks", "stragglers", "wall time")
	for _, lps := range []int{1, 2, 4} {
		cfg := timewarp.Config{
			LPs:        lps,
			Population: 6,
			Horizon:    150,
			MaxDelta:   8,
			Seed:       42,
		}
		seq := timewarp.Sequential(cfg)
		start := time.Now()
		par, err := timewarp.Parallel(cfg, engine.WithOutput(io.Discard))
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		match := "yes"
		if par.Events != seq.Events {
			match = fmt.Sprintf("NO (%d vs %d)", par.Events, seq.Events)
		} else {
			for i := range par.Committed {
				if len(par.Committed[i]) != len(seq.Committed[i]) {
					match = "NO (per-LP)"
				}
			}
		}
		t.AddRow(lps, par.Events, match, par.Rollbacks, par.Stragglers, elapsed.Round(time.Millisecond))
	}
	return render(w, t)
}

package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"hope/internal/engine"
	"hope/internal/occ"
	"hope/internal/scenario"
)

// conflictSchedule returns n booleans marking which writes of a client
// collide with a concurrent writer (probability conflictRate) — a pure
// function of the seed.
func conflictSchedule(n int, conflictRate float64, seed int64) []bool {
	rng := rand.New(rand.NewSource(seed))
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Float64() < conflictRate
	}
	return out
}

// runReplication drives one client through `writes` read-modify-write
// updates against a primary `latency` away, with a saboteur client
// invalidating the cache before the writes marked in conflicts. Returns
// the client's settled makespan and its session counters.
func runReplication(writes int, conflicts []bool, latency time.Duration, optimistic bool) (time.Duration, int, int, error) {
	rt := engine.New(
		engine.WithOutput(io.Discard),
		engine.WithLatency(func(from, to string) time.Duration { return latency }),
	)
	defer rt.Shutdown()

	if err := occ.ServePrimary(rt, "primary", map[string]any{"k": 0}); err != nil {
		return 0, 0, 0, err
	}

	// The saboteur performs a synchronous write when asked, creating a
	// version conflict for the client's in-flight optimistic update.
	if err := rt.Spawn("saboteur", func(p *engine.Proc) error {
		s := occ.NewSession(p, "primary")
		for {
			m, err := p.Recv()
			if err != nil {
				return nil //nolint:nilerr // shutdown ends the loop
			}
			if err := s.WriteSync("k", m.Payload.(int)+100_000); err != nil {
				return err
			}
			if err := p.Send("client", "done"); err != nil {
				return err
			}
		}
	}); err != nil {
		return 0, 0, 0, err
	}

	optCommits, conflictCount := 0, 0
	start := time.Now()
	if err := rt.Spawn("client", func(p *engine.Proc) error {
		s := occ.NewSession(p, "primary")
		inc := func(v any) any { return v.(int) + 1 }
		for i := 0; i < writes; i++ {
			if conflicts[i] {
				// Provoke a conflict: the saboteur bumps the version
				// while our cache holds the old one.
				if err := p.Send("saboteur", i); err != nil {
					return err
				}
				if _, err := p.RecvMatch(func(v any) bool { s, ok := v.(string); return ok && s == "done" }); err != nil {
					return err
				}
			}
			if optimistic {
				if _, err := s.Update("k", inc); err != nil {
					return err
				}
			} else {
				if _, err := s.Refresh("k"); err != nil {
					return err
				}
				if err := s.WriteSync("k", 0); err != nil { // value irrelevant for timing
					return err
				}
			}
		}
		p.Effect(func() {
			optCommits = s.OptimisticCommits
			conflictCount = s.Conflicts
		}, nil)
		return nil
	}); err != nil {
		return 0, 0, 0, err
	}

	elapsed, err := scenario.Settle(rt, start)
	return elapsed, optCommits, conflictCount, err
}

// E7Replication evaluates the paper's §7 future-work application:
// optimistic updates to cached replicas versus synchronous writes, across
// a conflict-rate sweep. Optimistic writes cost nothing until the cached
// version is stale; the pessimistic baseline pays a round trip per write
// regardless. The gain should shrink as the conflict rate grows.
func E7Replication(w io.Writer) error {
	const writes = 16
	const latency = 2 * time.Millisecond
	t := newTable(
		fmt.Sprintf("E7: optimistic replication (%d writes, %v latency)", writes, latency),
		"conflict rate", "sync", "optimistic", "speedup", "opt commits", "conflicts")
	for _, rate := range []float64{0, 0.25, 0.5, 1.0} {
		conflicts := conflictSchedule(writes, rate, 5)
		syncT, _, _, err := runReplication(writes, conflicts, latency, false)
		if err != nil {
			return err
		}
		optT, commits, confl, err := runReplication(writes, conflicts, latency, true)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("%.0f%%", rate*100), syncT, optT,
			speedup(syncT, optT), commits, confl)
	}
	return render(w, t)
}

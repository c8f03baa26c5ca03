// Command replication demonstrates the paper's §7 future-work
// application — optimistic concurrency control of replicated data: two
// clients update a shared counter and a set of private keys through
// client-local caches, optimistically assuming their cached versions are
// current. Conflicting updates are denied by the primary and reconciled
// on the pessimistic path; the demo prints per-client accounting and
// verifies that no update was lost.
//
//	go run ./examples/replication -rounds 20 -latency 2ms -shared 0.3
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"hope"
	"hope/internal/occ"
)

func main() {
	rounds := flag.Int("rounds", 20, "updates per client")
	latency := flag.Duration("latency", 2*time.Millisecond, "one-way network latency")
	shared := flag.Float64("shared", 0.3, "fraction of updates hitting the shared key")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	if err := run(*rounds, *latency, *shared, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "replication:", err)
		os.Exit(1)
	}
}

func run(rounds int, latency time.Duration, shared float64, seed int64) error {
	rt := hope.New(hope.WithPolicy(hope.Policy{
		Output:  os.Stdout,
		Latency: func(from, to string) time.Duration { return latency },
	}))
	defer rt.Shutdown()

	initial := map[string]any{"counter": 0, "a": 0, "b": 0}
	if err := occ.ServePrimary(rt, "primary", initial); err != nil {
		return err
	}

	// Pre-compute each client's key schedule so both runs and replays are
	// deterministic.
	schedule := func(client int) []string {
		rng := rand.New(rand.NewSource(seed + int64(client)))
		keys := make([]string, rounds)
		private := []string{"a", "b"}[client%2]
		for i := range keys {
			if rng.Float64() < shared {
				keys[i] = "counter"
			} else {
				keys[i] = private
			}
		}
		return keys
	}

	start := time.Now()
	inc := func(v any) any { return v.(int) + 1 }
	for c := 0; c < 2; c++ {
		c := c
		keys := schedule(c)
		name := fmt.Sprintf("client%d", c)
		if err := rt.Spawn(name, func(p *hope.Proc) error {
			s := occ.NewSession(p, "primary")
			for _, key := range keys {
				// Refresh shared keys so contention is visible; private
				// keys stay cached (pure fast path).
				if key == "counter" {
					if _, err := s.Refresh(key); err != nil {
						return err
					}
				}
				if _, err := s.Update(key, inc); err != nil {
					return err
				}
			}
			p.Printf("%s: optimistic=%d conflicts=%d syncWrites=%d\n",
				name, s.OptimisticCommits, s.Conflicts, s.SyncWrites)
			return nil
		}); err != nil {
			return err
		}
	}

	rt.Quiesce()
	elapsed := time.Since(start)

	// Audit: every increment must have landed exactly once.
	if err := rt.Spawn("auditor", func(p *hope.Proc) error {
		s := occ.NewSession(p, "primary")
		total := 0
		for _, key := range []string{"counter", "a", "b"} {
			v, err := s.Refresh(key)
			if err != nil {
				return err
			}
			p.Printf("final %-7s = %d\n", key, v.(int))
			total += v.(int)
		}
		if total != 2*rounds {
			return fmt.Errorf("lost updates: total %d, want %d", total, 2*rounds)
		}
		p.Printf("all %d updates accounted for, elapsed %v\n", total, elapsed.Round(time.Millisecond))
		return nil
	}); err != nil {
		return err
	}
	rt.Quiesce()
	rt.Shutdown()
	for _, err := range rt.Wait() {
		if err != nil {
			return err
		}
	}
	return nil
}

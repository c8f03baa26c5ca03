package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestSoakMixedWorkload runs a randomized multi-process workload — nested
// guesses, cross-process resolution, speculative message chains, jittered
// latencies — and checks global conservation properties at the end. With
// -short it runs a reduced configuration.
func TestSoakMixedWorkload(t *testing.T) {
	rounds := 40
	pairs := 6
	if testing.Short() {
		rounds, pairs = 10, 3
	}
	lat := func(from, to string) time.Duration {
		// Deterministic-ish skew by name hash to shuffle arrival orders.
		h := 0
		for _, c := range from + to {
			h = h*31 + int(c)
		}
		return time.Duration(h%5) * 100 * time.Microsecond
	}
	rt := New(WithOutput(discard{}), WithLatency(lat))
	defer rt.Shutdown()

	var committed, aborted atomic.Int64

	for i := 0; i < pairs; i++ {
		gname := fmt.Sprintf("g%d", i)
		rname := fmt.Sprintf("r%d", i)
		i := i
		spawn(t, rt, rname, func(p *Proc) error {
			for r := 0; r < rounds; r++ {
				m, err := p.Recv()
				if err != nil {
					return err
				}
				x := m.Payload.(AID)
				var rerr error
				if (r+i)%3 == 0 {
					rerr = p.Deny(x)
				} else {
					rerr = p.Affirm(x)
				}
				if rerr != nil && !errors.Is(rerr, ErrConflict) {
					return rerr
				}
			}
			return nil
		})
		spawn(t, rt, gname, func(p *Proc) error {
			for r := 0; r < rounds; r++ {
				x := p.NewAID()
				if err := p.Send(rname, x); err != nil {
					return err
				}
				if p.Guess(x) {
					p.Effect(func() { committed.Add(1) }, func() { aborted.Add(1) })
					// Speculative nested work, sometimes with a second
					// assumption resolved by ourselves.
					if r%3 == 0 {
						y := p.NewAID()
						if p.Guess(y) {
							if err := p.Affirm(y); err != nil && !errors.Is(err, ErrConflict) {
								return err
							}
						}
					}
				} else {
					p.Effect(func() { committed.Add(1) }, nil)
				}
			}
			return nil
		})
	}
	waitClean(t, rt)

	// Every round commits exactly one effect (optimistic or pessimistic);
	// denied rounds additionally aborted their optimistic effect.
	wantCommits := int64(pairs * rounds)
	if committed.Load() != wantCommits {
		t.Fatalf("commits = %d, want %d", committed.Load(), wantCommits)
	}
	// Each denied round aborts its own optimistic effect at least once;
	// cascades abort (and re-register) later rounds' effects too, so the
	// exact count is schedule-dependent — a lower bound is the invariant.
	minAborts := int64(0)
	for i := 0; i < pairs; i++ {
		for r := 0; r < rounds; r++ {
			if (r+i)%3 == 0 {
				minAborts++
			}
		}
	}
	if aborted.Load() < minAborts {
		t.Fatalf("aborts = %d, want ≥ %d", aborted.Load(), minAborts)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

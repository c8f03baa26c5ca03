package experiments

import (
	"fmt"
	"io"
	"time"

	"hope/internal/engine"
)

// E5TrackerOverhead measures the dependency-tracking machinery itself:
// the per-primitive cost of guess/affirm cycles, the cost of a guess as
// the speculative chain (and therefore the inherited IDO set) deepens,
// and the message-tag cost of sending while dependent on many
// assumptions. The §7 claim under test: dependency tracking never makes a
// user process wait for another process's progress — so primitive cost
// should be microseconds and independent of what other processes do.
func E5TrackerOverhead(w io.Writer) error {
	t := newTable("E5: dependency-tracking primitive cost",
		"operation", "chain depth", "ops", "ns/op")

	// (a) guess+self-affirm cycles from a single process.
	{
		rt := engine.New(engine.WithOutput(io.Discard))
		const ops = 5_000
		done := make(chan time.Duration, 1)
		if err := rt.Spawn("p", func(p *engine.Proc) error {
			//hopevet:ignore nondeterminism -- timing harness; self-affirmed body never replays
			start := time.Now()
			for i := 0; i < ops; i++ {
				x := p.NewAID()
				if p.Guess(x) {
					if err := p.Affirm(x); err != nil {
						return err
					}
				}
			}
			//hopevet:ignore nondeterminism -- timing harness; self-affirmed body never replays
			done <- time.Since(start) //hopevet:ignore escape -- timing-harness handoff; the body never replays past this send
			return nil
		}); err != nil {
			return err
		}
		elapsed := <-done
		rt.Shutdown()
		rt.Wait()
		t.AddRow("guess+self-affirm", 0, ops, fmt.Sprintf("%d", elapsed.Nanoseconds()/ops))
	}

	// (b) guess cost at increasing chain depth: the new interval inherits
	// the whole IDO set (Equation 3), so cost grows with outstanding
	// assumptions.
	for _, depth := range []int{1, 32, 256} {
		rt := engine.New(engine.WithOutput(io.Discard))
		const ops = 300
		done := make(chan time.Duration, 1)
		if err := rt.Spawn("p", func(p *engine.Proc) error {
			for i := 0; i < depth; i++ {
				p.Guess(p.NewAID()) //hopevet:ignore specleak -- chain-depth harness; the unresolved chain is the workload
			}
			//hopevet:ignore nondeterminism -- timing harness; guesses stay unresolved, no replay
			start := time.Now()
			for i := 0; i < ops; i++ {
				p.Guess(p.NewAID()) //hopevet:ignore specleak -- chain-depth harness; the unresolved chain is the workload
			}
			//hopevet:ignore nondeterminism -- timing harness; guesses stay unresolved, no replay
			done <- time.Since(start) //hopevet:ignore escape -- timing-harness handoff; the body never replays past this send
			return nil
		}); err != nil {
			return err
		}
		elapsed := <-done
		rt.Shutdown()
		rt.Wait()
		t.AddRow("guess (deep chain)", depth, ops, fmt.Sprintf("%d", elapsed.Nanoseconds()/ops))
	}

	// (c) send cost while dependent on many assumptions (tag capture).
	for _, depth := range []int{0, 64} {
		rt := engine.New(engine.WithOutput(io.Discard))
		const ops = 2_000
		done := make(chan time.Duration, 1)
		if err := rt.Spawn("sink", func(p *engine.Proc) error {
			for {
				if _, err := p.Recv(); err != nil {
					return nil //nolint:nilerr // shutdown ends the sink
				}
			}
		}); err != nil {
			return err
		}
		if err := rt.Spawn("p", func(p *engine.Proc) error {
			for i := 0; i < depth; i++ {
				p.Guess(p.NewAID()) //hopevet:ignore specleak -- chain-depth harness; the unresolved chain is the workload
			}
			//hopevet:ignore nondeterminism -- timing harness; guesses stay unresolved, no replay
			start := time.Now()
			for i := 0; i < ops; i++ {
				if err := p.Send("sink", i); err != nil {
					return err
				}
			}
			//hopevet:ignore nondeterminism -- timing harness; guesses stay unresolved, no replay
			done <- time.Since(start) //hopevet:ignore escape -- timing-harness handoff; the body never replays past this send
			return nil
		}); err != nil {
			return err
		}
		elapsed := <-done
		rt.Shutdown()
		rt.Wait()
		t.AddRow("tagged send", depth, ops, fmt.Sprintf("%d", elapsed.Nanoseconds()/ops))
	}

	// (d) the non-blocking claim: guess latency from one process while a
	// crowd of other processes churns the tracker concurrently.
	{
		rt := engine.New(engine.WithOutput(io.Discard))
		const ops = 2_000
		stop := make(chan struct{})
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("churn%d", i)
			if err := rt.Spawn(name, func(p *engine.Proc) error {
				for {
					select {
					//hopevet:ignore nondeterminism -- shutdown poll in a churn body that never replays
					case <-stop:
						return nil
					default:
					}
					x := p.NewAID()
					if p.Guess(x) {
						if err := p.Affirm(x); err != nil {
							return err
						}
					}
				}
			}); err != nil {
				return err
			}
		}
		done := make(chan time.Duration, 1)
		if err := rt.Spawn("p", func(p *engine.Proc) error {
			//hopevet:ignore nondeterminism -- timing harness; self-affirmed body never replays
			start := time.Now()
			for i := 0; i < ops; i++ {
				x := p.NewAID()
				if p.Guess(x) {
					if err := p.Affirm(x); err != nil {
						return err
					}
				}
			}
			//hopevet:ignore nondeterminism -- timing harness; self-affirmed body never replays
			done <- time.Since(start) //hopevet:ignore escape -- timing-harness handoff; the body never replays past this send
			return nil
		}); err != nil {
			return err
		}
		elapsed := <-done
		close(stop)
		rt.Shutdown()
		rt.Wait()
		t.AddRow("guess+affirm under churn", 0, ops, fmt.Sprintf("%d", elapsed.Nanoseconds()/ops))
	}

	return render(w, t)
}

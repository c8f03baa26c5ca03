package engine

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hope/internal/ids"
	"hope/internal/testutil"
)

// Tests for the two seams every primitive is a client of: the logged
// decision (replayed/logged) and the blocking wait (block/setPhase).

// A RecvTimeout that expires inside a speculative interval is a logged
// receive that consumed nothing: the rollback that discards it must not
// requeue a message for it. The denied path uses RecvSettled because it
// is the receive that reads the queued message's tags.
func TestRollbackDiscardsLoggedTimeout(t *testing.T) {
	rt, buf := newRT(t)
	aidCh := make(chan AID, 1)
	spawn(t, rt, "p", func(p *Proc) error {
		x := p.NewAID()
		if p.Guess(x) {
			if _, err := p.RecvTimeout(2 * time.Millisecond); !errors.Is(err, ErrTimeout) {
				return fmt.Errorf("want ErrTimeout, got %v", err)
			}
			aidCh <- x // only now may the judge deny: the timeout is logged
			_, err := p.Recv()
			return err // unreachable: the rollback unwinds the Recv
		}
		m, err := p.RecvSettled()
		if err != nil {
			return err
		}
		p.Printf("got %v\n", m.Payload)
		return nil
	})
	spawn(t, rt, "judge", func(p *Proc) error {
		if err := p.Deny(<-aidCh); err != nil {
			return err
		}
		return p.Send("p", "late")
	})
	waitClean(t, rt)
	if got, want := buf.String(), "got late\n"; got != want {
		t.Fatalf("output %q, want %q", got, want)
	}
}

// Every kind of logged decision is checked on replay: a body that logged
// one primitive and, re-executed after a rollback, calls another — or the
// same one on a different assumption — ends in ErrNondeterministic.
func TestReplayDivergenceEveryKind(t *testing.T) {
	type op func(p *Proc, a, b AID)
	draw := op(func(p *Proc, _, _ AID) { p.Rand() })
	recv := op(func(p *Proc, _, _ AID) { _, _ = p.Recv() }) // the body's self-send is queued
	never := func(any) bool { return false }
	cases := []struct {
		name          string
		first, replay op
	}{
		{"NewAID", func(p *Proc, _, _ AID) { p.NewAID() }, draw},
		{"Guess", func(p *Proc, a, _ AID) { p.Guess(a) }, draw},
		{"Recv", recv, draw},
		{"Send", func(p *Proc, _, _ AID) { _ = p.Send("p", 1) }, draw},
		{"Affirm", func(p *Proc, a, _ AID) { _ = p.Affirm(a) }, draw},
		{"Deny", func(p *Proc, a, _ AID) { _ = p.Deny(a) }, draw},
		{"FreeOf", func(p *Proc, a, _ AID) { _ = p.FreeOf(a) }, draw},
		{"Effect", func(p *Proc, _, _ AID) { p.Effect(func() {}, nil) }, draw},
		{"Rand", draw, func(p *Proc, _, _ AID) { p.NewAID() }},
		{"Outcome", func(p *Proc, a, _ AID) { p.Outcome(a) }, draw},
		// A logged checkpoint is never re-consumed (a resume starts just
		// past the newest one), so its kind is checked from the other
		// side: a Checkpoint call meeting some other entry.
		{"Checkpoint", draw, func(p *Proc, _, _ AID) { p.Checkpoint(1) }},
		{"Guess/otherAID", func(p *Proc, a, _ AID) { p.Guess(a) }, func(p *Proc, _, b AID) { p.Guess(b) }},
		{"Affirm/otherAID", func(p *Proc, a, _ AID) { _ = p.Affirm(a) }, func(p *Proc, _, b AID) { _ = p.Affirm(b) }},
		{"Deny/otherAID", func(p *Proc, a, _ AID) { _ = p.Deny(a) }, func(p *Proc, _, b AID) { _ = p.Deny(b) }},
		{"FreeOf/otherAID", func(p *Proc, a, _ AID) { _ = p.FreeOf(a) }, func(p *Proc, _, b AID) { _ = p.FreeOf(b) }},
		{"Outcome/otherAID", func(p *Proc, a, _ AID) { p.Outcome(a) }, func(p *Proc, _, b AID) { p.Outcome(b) }},
		// A logged timeout replays only into a receive that has a deadline.
		{"Timeout/intoRecv", func(p *Proc, _, _ AID) { _, _ = p.RecvTimeout(time.Millisecond) },
			func(p *Proc, _, _ AID) { _, _ = p.RecvMatch(never) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, _ := newRT(t)
			aidCh := make(chan AID, 1)
			var replaying atomic.Bool
			spawn(t, rt, "p", func(p *Proc) error {
				y, a, b := p.NewAID(), p.NewAID(), p.NewAID()
				if tc.name == "Recv" {
					_ = p.Send("p", 0)
				}
				if replaying.Swap(true) {
					tc.replay(p, a, b)
				} else {
					tc.first(p, a, b)
				}
				// Published only once the guess stands, so the deny
				// always finds a speculation to roll back.
				if p.Guess(y) {
					aidCh <- y
					_, _ = p.RecvMatch(never) // until the rollback unwinds it
				}
				return nil
			})
			spawn(t, rt, "verifier", func(p *Proc) error {
				return p.Deny(<-aidCh)
			})
			// Should the divergence go unnoticed the body blocks for good:
			// release it so the test fails instead of hanging.
			go func() {
				rt.Quiesce()
				rt.Shutdown()
			}()
			errs := rt.Wait()
			if len(errs) != 1 || !errors.Is(errs[0], ErrNondeterministic) {
				t.Fatalf("errs = %v, want one ErrNondeterministic", errs)
			}
		})
	}
}

// A process woken by a deadline — a RecvTimeout expiring, a pessimistic
// Guess running out its wait budget — has nothing queued to show for it:
// until it is marked running, only its deadline tells Quiesce it will
// move. Quiesce called right after Spawn must therefore outlast both. The
// test polls Quiesce's own predicate back to back rather than sleeping on
// rt.cond like Quiesce does, so a window in which a woken process reads as
// stable is found, not raced for: with block mutated to clear the wait in
// a critical section of its own before the flip to running, this fails
// most runs at GOMAXPROCS=2 (every run under -race).
func TestQuiesceWaitsOutTimedWaits(t *testing.T) {
	for i := 0; i < 200; i++ {
		buf := &testutil.SyncBuffer{}
		rt := New(WithOutput(buf), WithSpeculation(alwaysOff(3*time.Millisecond)))
		spawn(t, rt, "timed", func(p *Proc) error {
			if _, err := p.RecvTimeout(3 * time.Millisecond); !errors.Is(err, ErrTimeout) {
				return fmt.Errorf("want ErrTimeout, got %v", err)
			}
			p.Printf("timed out\n")
			return nil
		})
		spawn(t, rt, "pessimist", func(p *Proc) error {
			x := p.NewAID()
			if !p.Guess(x) { // nobody resolves x: the budget expires
				return errors.New("guess returned false")
			}
			p.Printf("speculated\n")
			return p.Affirm(x)
		})
		for stable := false; !stable; runtime.Gosched() {
			rt.mu.Lock()
			stable = rt.stableLocked()
			rt.mu.Unlock()
		}
		out := buf.String()
		rt.Quiesce()
		rt.Shutdown()
		waitClean(t, rt)
		if !strings.Contains(out, "timed out\n") || !strings.Contains(out, "speculated\n") {
			t.Fatalf("iteration %d: stable with output %q", i, out)
		}
	}
}

// A RecvSettled sink and an admission-denied Guess blocked on the same
// assumption are both woken by its one resolution, and neither stays
// registered with the resolution watcher — whether the wait ended by
// resolution or by shutdown.
func TestOneResolutionWakesBothWaiterKinds(t *testing.T) {
	for _, resolve := range []bool{true, false} {
		rt, buf := newRT(t, WithSpeculation(alwaysOff(-1)))
		x := AID{id: rt.tr.NewAID()}
		spawn(t, rt, "sink", func(p *Proc) error {
			m, err := p.RecvSettled()
			if errors.Is(err, ErrShutdown) {
				return nil
			}
			p.Printf("sink %v\n", m.Payload)
			return err
		})
		spawn(t, rt, "pessimist", func(p *Proc) error {
			p.Printf("guess %v\n", p.Guess(x))
			return nil
		})
		// A message speculative on x, as a remote speculator would send it.
		if err := rt.InjectRemote(WireMsg{From: "far", To: "sink", Seq: 1, Tags: []ids.AID{x.id}, Payload: "m"}); err != nil {
			t.Fatal(err)
		}
		rt.Quiesce()
		if n := settledWaiters(rt); n != 2 {
			t.Fatalf("resolve=%v: %d settled waiters while both block, want 2\n%s", resolve, n, rt.DebugString())
		}
		if resolve {
			spawn(t, rt, "judge", func(p *Proc) error { return p.Affirm(x) })
		} else {
			rt.Shutdown()
		}
		waitClean(t, rt)
		if n := settledWaiters(rt); n != 0 {
			t.Fatalf("resolve=%v: %d settled waiters left registered", resolve, n)
		}
		if out := buf.String(); resolve && (!strings.Contains(out, "sink m\n") || !strings.Contains(out, "guess true\n")) {
			t.Fatalf("output %q, want both waiters released by the one Affirm", out)
		}
	}
}

func settledWaiters(rt *Runtime) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.settledWaiters)
}

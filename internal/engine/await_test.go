package engine

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hope/internal/tracker"
)

// AwaitTerminal is the unlogged wait behind rpc.Session's speculation
// horizon: it returns once its AID is terminal, unwinds on a rollback,
// returns ErrShutdown after Shutdown, and neither blocks nor logs while
// the body replays.

// awaitBlockedOn polls until the named process is blocked waiting for
// a's verdict.
func awaitBlockedOn(t *testing.T, rt *Runtime, name string, a AID) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rt.mu.Lock()
		p := rt.procs[name]
		rt.mu.Unlock()
		if p != nil {
			p.mu.Lock()
			blocked := p.state == stateBlocked && p.wait.aid == a.id
			p.mu.Unlock()
			if blocked {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never blocked on %v\n%s", name, a, rt.DebugString())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAwaitTerminalReturnsOnAffirm(t *testing.T) {
	rt, buf := newRT(t)
	aids := make(chan AID, 1)
	release := make(chan struct{})
	spawn(t, rt, "resolver", func(p *Proc) error {
		m, err := p.Recv()
		if err != nil {
			return err
		}
		<-release
		return p.Affirm(m.Payload.(AID))
	})
	spawn(t, rt, "waiter", func(p *Proc) error {
		x := p.NewAID()
		aids <- x
		if err := p.Send("resolver", x); err != nil {
			return err
		}
		if err := AwaitTerminal(p, x); err != nil {
			return err
		}
		if resolved, affirmed := p.Outcome(x); !resolved || !affirmed {
			return errors.New("AwaitTerminal returned before the affirm")
		}
		p.Printf("passed\n")
		return nil
	})
	awaitBlockedOn(t, rt, "waiter", <-aids)
	close(release)
	waitClean(t, rt)
	if out := buf.String(); out != "passed\n" {
		t.Fatalf("output %q, want the wait passed once", out)
	}
}

// TestAwaitTerminalDenyRollsBackToGuess: the waiter guesses x, then waits
// for y, which nobody resolves; the deny of x ends the wait by unwinding
// to the guess, which returns false.
func TestAwaitTerminalDenyRollsBackToGuess(t *testing.T) {
	rt, buf := newRT(t)
	ys := make(chan AID, 1)
	release := make(chan struct{})
	var returned atomic.Bool
	spawn(t, rt, "resolver", func(p *Proc) error {
		m, err := p.Recv()
		if err != nil {
			return err
		}
		<-release
		return p.Deny(m.Payload.(AID))
	})
	spawn(t, rt, "waiter", func(p *Proc) error {
		x := p.NewAID()
		if err := p.Send("resolver", x); err != nil {
			return err
		}
		if p.Guess(x) {
			y := p.NewAID()
			ys <- y
			err := AwaitTerminal(p, y)
			returned.Store(true)
			return err
		}
		p.Printf("pessimistic\n")
		return nil
	})
	y := <-ys
	awaitBlockedOn(t, rt, "waiter", y)
	close(release)
	waitClean(t, rt)
	if returned.Load() {
		t.Fatal("AwaitTerminal returned instead of unwinding to the guess")
	}
	if out := buf.String(); out != "pessimistic\n" {
		t.Fatalf("output %q, want only the pessimistic path", out)
	}
	if st := rt.Status(y.id); st != tracker.Denied {
		t.Fatalf("%v, minted after the guess, is %v: want Denied with the cut", y, st)
	}
}

// TestAwaitTerminalSkippedOnReplay: the live run waits for w, which the
// resolver affirms; a self-deny then rolls the body back, and its replay
// passes the same wait on never, which nobody resolves until the body
// affirms it after the wait. Neither pass writes the log.
func TestAwaitTerminalSkippedOnReplay(t *testing.T) {
	rt, buf := newRT(t)
	var attempts atomic.Int32
	var wrote atomic.Bool
	spawn(t, rt, "resolver", func(p *Proc) error {
		m, err := p.Recv()
		if err != nil {
			return err
		}
		return p.Affirm(m.Payload.(AID))
	})
	spawn(t, rt, "waiter", func(p *Proc) error {
		never := p.NewAID()
		w := p.NewAID()
		if err := p.Send("resolver", w); err != nil {
			return err
		}
		x := p.NewAID()
		target := w
		if attempts.Add(1) > 1 {
			target = never // a wait that replay must not look at
		}
		before := p.LogLen()
		if err := AwaitTerminal(p, target); err != nil {
			return err
		}
		if p.LogLen() != before {
			wrote.Store(true)
		}
		if p.Guess(x) {
			return p.Deny(x)
		}
		p.Printf("replayed past\n")
		return p.Affirm(never)
	})
	waitClean(t, rt)
	if n := attempts.Load(); n != 2 {
		t.Fatalf("%d body attempts, want the live run and one replay", n)
	}
	if wrote.Load() {
		t.Fatal("AwaitTerminal wrote the replay log")
	}
	if out := buf.String(); out != "replayed past\n" {
		t.Fatalf("output %q, want the replay to pass the wait", out)
	}
}

func TestAwaitTerminalShutdownReleases(t *testing.T) {
	rt, _ := newRT(t)
	aids := make(chan AID, 1)
	errs := make(chan error, 1)
	spawn(t, rt, "waiter", func(p *Proc) error {
		x := p.NewAID()
		aids <- x
		errs <- AwaitTerminal(p, x)
		return nil
	})
	awaitBlockedOn(t, rt, "waiter", <-aids)
	rt.Shutdown()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrShutdown) {
			t.Fatalf("AwaitTerminal error = %v, want ErrShutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not release AwaitTerminal")
	}
}

package engine

import (
	"errors"
	"sync/atomic"
	"testing"

	"hope/internal/fault"
	"hope/internal/ids"
	"hope/internal/tracker"
)

// The soundness boundary of denying what a rollback cut un-mints
// (applyPending, tracker.DenyUnminted): only the AIDs whose NewAID
// entries the cut drops are denied. One minted before the cut, one
// dropped by compaction and one replayed after a crash all stay live.

// mintAroundCut runs a process that mints pre, guesses x, and in the
// guessed branch mints and guesses post before denying x: the rollback's
// cut falls between the two mints. The re-executed branch hands pre to a
// resolver, guesses it and prints once the resolver's affirm commits it.
func mintAroundCut(t *testing.T) (rt *Runtime, out string, pre, post AID) {
	t.Helper()
	rt, buf := newRT(t)
	pres, posts := make(chan AID, 1), make(chan AID, 1)
	spawn(t, rt, "resolver", func(p *Proc) error {
		m, err := p.Recv()
		if err != nil {
			return err
		}
		return p.Affirm(m.Payload.(AID))
	})
	spawn(t, rt, "minter", func(p *Proc) error {
		pre := p.NewAID()
		x := p.NewAID()
		if p.Guess(x) {
			post := p.NewAID()
			p.Guess(post)
			posts <- post
			return p.Deny(x)
		}
		pres <- pre
		if err := p.Send("resolver", pre); err != nil {
			return err
		}
		if !p.Guess(pre) {
			return errors.New("the AID minted before the cut was denied")
		}
		p.Printf("committed\n")
		return nil
	})
	waitClean(t, rt)
	return rt, buf.String(), <-pres, <-posts
}

func TestUnmintedKeepsAIDMintedBeforeCut(t *testing.T) {
	rt, out, pre, _ := mintAroundCut(t)
	if out != "committed\n" {
		t.Fatalf("output %q, want the re-executed branch's commit", out)
	}
	if st := rt.Status(pre.id); st != tracker.Affirmed {
		t.Fatalf("%v minted before the cut is %v, want Affirmed by its resolver", pre, st)
	}
	if dump := rt.DebugTracker(); dump != "" {
		t.Fatalf("quiet runtime holds speculative state:\n%s", dump)
	}
}

func TestUnmintedDeniesAIDMintedAfterCut(t *testing.T) {
	rt, _, _, post := mintAroundCut(t)
	if st := rt.Status(post.id); st != tracker.Denied {
		t.Fatalf("%v minted after the cut is %v, want Denied", post, st)
	}
}

// TestUnmintedNotOnCompaction: a Loop mints X in its first step and hands
// it to a resolver; the step boundary compacts the NewAID entry away (the
// process is definite), and only then does the resolver affirm X.
func TestUnmintedNotOnCompaction(t *testing.T) {
	rt, _ := newRT(t)
	aids := make(chan AID, 1)
	var compacted atomic.Int64
	err := Loop(rt, "minter",
		func() *counterState { return &counterState{} },
		cloneCounter,
		func(p *Proc, s *counterState) error {
			switch s.n {
			case 0:
				x := p.NewAID()
				aids <- x
				if err := p.Send("resolver", x); err != nil {
					return err
				}
			case 1:
				compacted.Store(int64(p.LogLen()))
				if err := p.Send("resolver", "go"); err != nil {
					return err
				}
			default:
				return ErrStopLoop
			}
			s.n++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	spawn(t, rt, "resolver", func(p *Proc) error {
		m, err := p.Recv()
		if err != nil {
			return err
		}
		if _, err := p.Recv(); err != nil { // the minter compacted
			return err
		}
		return p.Affirm(m.Payload.(AID))
	})
	waitClean(t, rt)
	if n := compacted.Load(); n != 1 {
		t.Fatalf("second step saw a log of %d entries, want only compaction's checkpoint", n)
	}
	x := <-aids
	if st := rt.Status(x.id); st != tracker.Affirmed {
		t.Fatalf("%v compacted away while live is %v, want Affirmed by its resolver", x, st)
	}
}

// TestUnmintedNotOnCrashReplay: injected crashes restart a process that
// mints, sends and guesses AIDs; its replays re-read logged NewAID
// entries, and every AID stays live until the resolver affirms it.
func TestUnmintedNotOnCrashReplay(t *testing.T) {
	const n = 8
	plan := fault.New(fault.Config{Seed: 1, Crash: 0.2, MaxCrashes: 4})
	rt, _ := newRT(t, WithFaults(plan))
	var minted [n]atomic.Uint64 // every attempt replays the same AIDs
	spawn(t, rt, "resolver", func(p *Proc) error {
		for i := 0; i < n; i++ {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			if err := p.Affirm(m.Payload.(AID)); err != nil {
				return err
			}
		}
		return nil
	})
	spawn(t, rt, "minter", func(p *Proc) error {
		for i := range minted {
			x := p.NewAID()
			minted[i].Store(uint64(x.id))
			if err := p.Send("resolver", x); err != nil {
				return err
			}
			if !p.Guess(x) {
				return errors.New("a replayed AID was denied")
			}
		}
		return nil
	})
	waitClean(t, rt)
	rt.mu.Lock()
	minter := rt.procs["minter"]
	rt.mu.Unlock()
	if minter.Restarts() == 0 {
		t.Fatal("the plan crashed nothing in the minter; pick another seed")
	}
	for i := range minted {
		x := ids.AID(minted[i].Load())
		if st := rt.Status(x); st != tracker.Affirmed {
			t.Fatalf("%v is %v after crash replays, want Affirmed by its resolver", x, st)
		}
	}
}

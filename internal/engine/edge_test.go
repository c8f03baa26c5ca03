package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNestedDeniesInAnyOrder drives a process with three nested
// assumptions and resolves them in every order/outcome combination; the
// final variable state must reflect exactly the denied prefix semantics.
func TestNestedDeniesInAnyOrder(t *testing.T) {
	type scenario struct {
		name     string
		resolve  []string // e.g. "affirm:0", "deny:1" in execution order
		wantPath [3]bool  // expected branch per level after settlement
	}
	scenarios := []scenario{
		{"all-affirmed", []string{"affirm:0", "affirm:1", "affirm:2"}, [3]bool{true, true, true}},
		{"inner-denied", []string{"affirm:0", "affirm:1", "deny:2"}, [3]bool{true, true, false}},
		{"middle-denied", []string{"affirm:0", "deny:1", "affirm:2"}, [3]bool{true, false, true}},
		{"outer-denied-first", []string{"deny:0", "affirm:1", "affirm:2"}, [3]bool{false, true, true}},
		{"outer-denied-last", []string{"affirm:1", "affirm:2", "deny:0"}, [3]bool{false, true, true}},
		{"all-denied", []string{"deny:2", "deny:1", "deny:0"}, [3]bool{false, false, false}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			rt, _ := newRT(t)
			aidsCh := make(chan [3]AID, 1)
			var paths [3]atomic.Bool

			spawn(t, rt, "worker", func(p *Proc) error {
				var aids [3]AID
				for i := range aids {
					aids[i] = p.NewAID()
				}
				select {
				case aidsCh <- aids:
				default:
				}
				for i := range aids {
					paths[i].Store(p.Guess(aids[i]))
				}
				return nil
			})
			spawn(t, rt, "resolver", func(p *Proc) error {
				aids := <-aidsCh
				select {
				case aidsCh <- aids:
				default:
				}
				for _, step := range sc.resolve {
					var op string
					var idx int
					fmt.Sscanf(step, "%*s") // no-op; parse manually below
					if _, err := fmt.Sscanf(step, "affirm:%d", &idx); err == nil {
						op = "affirm"
					} else if _, err := fmt.Sscanf(step, "deny:%d", &idx); err == nil {
						op = "deny"
					} else {
						return fmt.Errorf("bad step %q", step)
					}
					var err error
					if op == "affirm" {
						err = p.Affirm(aids[idx])
					} else {
						err = p.Deny(aids[idx])
					}
					if err != nil && !errors.Is(err, ErrConflict) {
						return err
					}
				}
				return nil
			})
			// Settle and re-resolve anything reopened by rollback (the
			// re-executed guesses create fresh assumptions only on live
			// paths; originals here are reused by replay).
			rt.Quiesce()
			rt.Shutdown()
			rt.Wait()
			// A denied outer level forces the worker to re-guess inner
			// levels; those re-guesses resolve immediately from the
			// already-settled AIDs, so the recorded paths are stable.
			for i, want := range sc.wantPath {
				if got := paths[i].Load(); got != want {
					t.Errorf("level %d path = %v, want %v", i, got, want)
				}
			}
		})
	}
}

// TestAbortEffectsRunOnCascade registers compensations at several chain
// depths; a deny of the outermost must abort all of them.
func TestAbortEffectsRunOnCascade(t *testing.T) {
	rt, _ := newRT(t)
	aidCh := make(chan AID, 1)
	var aborted atomic.Int32

	spawn(t, rt, "worker", func(p *Proc) error {
		outer := p.NewAID()
		select {
		case aidCh <- outer:
		default:
		}
		if p.Guess(outer) {
			for i := 0; i < 5; i++ {
				x := p.NewAID()
				if p.Guess(x) {
					p.Effect(func() {}, func() { aborted.Add(1) })
				}
			}
		}
		return nil
	})
	rt.Quiesce() // let the speculation build fully before the deny
	spawn(t, rt, "denier", func(p *Proc) error {
		return p.Deny(<-aidCh)
	})
	rt.Quiesce()
	rt.Shutdown()
	rt.Wait()
	if aborted.Load() != 5 {
		t.Fatalf("aborts = %d, want 5", aborted.Load())
	}
}

// TestOutcomeStableAcrossReplay: an Outcome read in the surviving prefix
// must replay identically even though the live state has since changed.
func TestOutcomeStableAcrossReplay(t *testing.T) {
	rt, _ := newRT(t)
	xCh := make(chan AID, 1)
	yCh := make(chan AID, 1)
	var reads [2][2]bool
	var runIdx atomic.Int32

	spawn(t, rt, "worker", func(p *Proc) error {
		x := p.NewAID() // resolved later by resolver
		select {
		case xCh <- x:
		default:
		}
		resolved, affirmed := p.Outcome(x) // read while unresolved
		i := runIdx.Add(1) - 1
		if int(i) < len(reads) {
			reads[i] = [2]bool{resolved, affirmed}
		}
		y := p.NewAID()
		if p.Guess(y) { // denied → replay the Outcome entry above
			yCh <- y // only once the guess is open, so the deny rolls it back
		}
		return nil
	})
	spawn(t, rt, "resolver", func(p *Proc) error {
		x := <-xCh
		if err := p.Affirm(x); err != nil {
			return err
		}
		return p.Deny(<-yCh)
	})
	waitClean(t, rt)
	if runIdx.Load() < 2 {
		t.Fatalf("expected a replay; runs = %d", runIdx.Load())
	}
	if reads[0] != reads[1] {
		t.Fatalf("Outcome not replay-stable: %v vs %v", reads[0], reads[1])
	}
}

// TestParkedProcessSurvivesRepeatedRollbacks: a body that returns while
// doubly speculative is reactivated by each deny and must converge.
func TestParkedProcessSurvivesRepeatedRollbacks(t *testing.T) {
	rt, _ := newRT(t)
	aidsCh := make(chan [2]AID, 1)
	var final atomic.Int64

	spawn(t, rt, "worker", func(p *Proc) error {
		a := p.NewAID()
		b := p.NewAID()
		select {
		case aidsCh <- [2]AID{a, b}:
		default:
		}
		v := 0
		if p.Guess(a) {
			v += 10
		} else {
			v += 1
		}
		if p.Guess(b) {
			v += 100
		} else {
			v += 2
		}
		final.Store(int64(v))
		return nil // parks speculative
	})
	spawn(t, rt, "resolver", func(p *Proc) error {
		aids := <-aidsCh
		if err := p.Deny(aids[1]); err != nil { // inner first: park → restart → park
			return err
		}
		return p.Deny(aids[0]) // outer: park → restart → definite
	})
	waitClean(t, rt)
	if final.Load() != 3 {
		t.Fatalf("final = %d, want 3 (both pessimistic)", final.Load())
	}
}

// TestParkedProcessWokenByAnotherAffirm: a body that returns while
// speculative parks, and the affirm that finalizes its interval comes
// later, from another process. The finalize is a resolution, so the
// watcher wakes the parked process, which finds itself definite and is
// done: Wait returns, and the parked interval's effect was released.
func TestParkedProcessWokenByAnotherAffirm(t *testing.T) {
	rt, buf := newRT(t)
	spawn(t, rt, "judge", func(p *Proc) error {
		claim, err := p.Recv()
		if err != nil {
			return err
		}
		if _, err := p.Recv(); err != nil { // the go-ahead, once the worker parked
			return err
		}
		return p.Affirm(claim.Payload.(AID))
	})
	spawn(t, rt, "worker", func(p *Proc) error {
		x := p.NewAID()
		if err := p.Send("judge", x); err != nil {
			return err
		}
		if p.Guess(x) {
			p.Printf("affirmed\n")
		}
		return nil // parks speculative
	})
	rt.Quiesce()
	rt.mu.Lock()
	worker := rt.procs["worker"]
	rt.mu.Unlock()
	if ph := worker.phase(); ph != stateParked {
		t.Fatalf("worker is %v at quiescence, want parked\n%s", ph, rt.DebugString())
	}
	if err := rt.InjectRemote(WireMsg{From: "test", To: "judge", Seq: 1, Payload: "go"}); err != nil {
		t.Fatal(err)
	}
	waitClean(t, rt)
	if got := buf.String(); got != "affirmed\n" {
		t.Fatalf("output = %q, want the parked interval's effect", got)
	}
}

// TestRecvMatchSkipsWithoutConsuming: messages not matching the predicate
// must remain deliverable, in order, to later receives.
func TestRecvMatchSkipsWithoutConsuming(t *testing.T) {
	rt, _ := newRT(t)
	var got []string
	var mu sync.Mutex
	done := make(chan struct{})

	spawn(t, rt, "sink", func(p *Proc) error {
		// Take the strings first even though ints arrive earlier: two
		// removals from the middle of the queue.
		for i := 0; i < 2; i++ {
			m, err := p.RecvMatch(func(v any) bool { _, ok := v.(string); return ok })
			if err != nil {
				return err
			}
			mu.Lock()
			got = append(got, fmt.Sprint(m.Payload))
			mu.Unlock()
		}
		for i := 0; i < 3; i++ {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			mu.Lock()
			got = append(got, fmt.Sprint(m.Payload))
			mu.Unlock()
		}
		close(done)
		return nil
	})
	spawn(t, rt, "src", func(p *Proc) error {
		if err := p.Send("sink", 1); err != nil {
			return err
		}
		for _, v := range []any{2, "s", 3} {
			if err := p.Send("sink", v); err != nil {
				return err
			}
		}
		return p.Send("sink", "t")
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out")
	}
	rt.Shutdown()
	rt.Wait()
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(got) != "[s t 1 2 3]" {
		t.Fatalf("order = %v, want [s t 1 2 3]", got)
	}
}

// TestDeepSpeculationChain exercises a 100-deep chain with messages and a
// single deny in the middle.
func TestDeepSpeculationChain(t *testing.T) {
	rt, _ := newRT(t)
	const depth = 100
	aidsCh := make(chan []AID, 1)
	var sum atomic.Int64

	spawn(t, rt, "worker", func(p *Proc) error {
		aids := make([]AID, depth)
		for i := range aids {
			aids[i] = p.NewAID()
		}
		select {
		case aidsCh <- aids:
		default:
		}
		total := 0
		for i := range aids {
			if p.Guess(aids[i]) {
				total += 1
			} else {
				total += 1000
			}
		}
		sum.Store(int64(total))
		return nil
	})
	spawn(t, rt, "resolver", func(p *Proc) error {
		aids := <-aidsCh
		for i, x := range aids {
			var err error
			if i == depth/2 {
				err = p.Deny(x)
			} else {
				err = p.Affirm(x)
			}
			if err != nil && !errors.Is(err, ErrConflict) {
				return err
			}
		}
		return nil
	})
	waitClean(t, rt)
	// One denied level contributes 1000; the rest contribute 1 each.
	if sum.Load() != depth-1+1000 {
		t.Fatalf("sum = %d, want %d", sum.Load(), depth-1+1000)
	}
}

// TestShutdownDuringSpeculationIsClean: shutting down with unresolved
// assumptions must not deadlock or panic.
func TestShutdownDuringSpeculationIsClean(t *testing.T) {
	rt, _ := newRT(t)
	started := make(chan struct{})
	spawn(t, rt, "worker", func(p *Proc) error {
		x := p.NewAID()
		p.Guess(x)
		select {
		case <-started:
		default:
			close(started)
		}
		_, err := p.Recv() // blocks forever
		if errors.Is(err, ErrShutdown) {
			return nil
		}
		return err
	})
	<-started
	rt.Shutdown()
	done := make(chan struct{})
	go func() { rt.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait hung after Shutdown during speculation")
	}
}

package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hope/internal/fault"
	"hope/internal/obs"
)

// pipelineWorkload is a small deterministic chain — source → worker →
// sink — whose committed output is the oracle for fault transparency.
func pipelineWorkload(t *testing.T, opts ...Option) (string, *Runtime) {
	t.Helper()
	rt, buf := newRT(t, opts...)
	const n = 12
	spawn(t, rt, "sink", func(p *Proc) error {
		for i := 0; i < n; i++ {
			m, err := p.RecvSettled()
			if err != nil {
				return err
			}
			p.Printf("sink got %s\n", m.Payload.(string))
		}
		return nil
	})
	spawn(t, rt, "worker", func(p *Proc) error {
		for i := 0; i < n; i++ {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			v := m.Payload.(int)
			x := p.NewAID()
			if p.Guess(x) {
				if err := p.SendRetry("sink", fmt.Sprintf("v=%d", v*v), RetryPolicy{Attempts: 50}); err != nil {
					return err
				}
			}
			if v%3 == 0 {
				if err := p.Deny(x); err != nil {
					return err
				}
				if err := p.SendRetry("sink", fmt.Sprintf("v=%d", -v), RetryPolicy{Attempts: 50}); err != nil {
					return err
				}
			} else if err := p.Affirm(x); err != nil {
				return err
			}
		}
		return nil
	})
	spawn(t, rt, "source", func(p *Proc) error {
		for i := 0; i < n; i++ {
			if err := p.SendRetry("worker", i, RetryPolicy{Attempts: 50}); err != nil {
				return err
			}
		}
		return nil
	})
	rt.Quiesce()
	rt.Shutdown()
	waitClean(t, rt)
	return buf.String(), rt
}

func TestFaultStormOutputTransparent(t *testing.T) {
	want, _ := pipelineWorkload(t)
	if want == "" {
		t.Fatal("baseline produced no output")
	}
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 0; seed < seeds; seed++ {
		plan := fault.New(fault.Config{
			Seed:       int64(seed),
			Crash:      0.02,
			MaxCrashes: 4,
			Drop:       0.2,
			Dup:        0.2,
			Delay:      0.3,
			MaxDelay:   200 * time.Microsecond,
			Stall:      0.3,
			MaxStall:   500 * time.Microsecond,
		})
		got, _ := pipelineWorkload(t, WithFaults(plan))
		if got != want {
			t.Fatalf("seed %d (%s): committed output diverged\nwant:\n%s\ngot:\n%s\ninjected: %v",
				seed, plan, want, got, plan.Injections())
		}
	}
}

func TestCrashRestartsAreCountedAndTransparent(t *testing.T) {
	want, _ := pipelineWorkload(t)
	// A crash-only plan aggressive enough that some process certainly
	// dies at least once.
	plan := fault.New(fault.Config{Seed: 3, Crash: 0.05, MaxCrashes: 8})
	got, rt := pipelineWorkload(t, WithFaults(plan))
	if got != want {
		t.Fatalf("output diverged under crashes\nwant:\n%s\ngot:\n%s", want, got)
	}
	if n := plan.Counts()[fault.Crash]; n == 0 {
		t.Skip("plan injected no crashes at this seed; raise Crash")
	}
	total := 0
	for _, name := range []string{"source", "worker", "sink"} {
		rt.mu.Lock()
		p := rt.procs[name]
		rt.mu.Unlock()
		total += p.Restarts()
	}
	if total == 0 {
		t.Fatal("crashes injected but no process recorded a restart")
	}
}

func TestDropSurfacesAsErrDelivery(t *testing.T) {
	// Drop rate 1: every send fails, and the verdict must be stable
	// under errors.Is through wrapping.
	plan := fault.New(fault.Config{Drop: 1})
	rt, _ := newRT(t, WithFaults(plan))
	errCh := make(chan error, 1)
	spawn(t, rt, "rx", func(p *Proc) error { return nil })
	spawn(t, rt, "tx", func(p *Proc) error {
		errCh <- p.Send("rx", "hello")
		return nil
	})
	if err := <-errCh; !errors.Is(err, ErrDelivery) {
		t.Fatalf("Send under drop=1: got %v, want ErrDelivery", err)
	}
	rt.Quiesce()
	rt.Shutdown()
	waitClean(t, rt)
}

func TestSendRetryExhaustionAndRecovery(t *testing.T) {
	plan := fault.New(fault.Config{Drop: 1})
	rt, _ := newRT(t, WithFaults(plan))
	errCh := make(chan error, 1)
	spawn(t, rt, "rx", func(p *Proc) error { return nil })
	spawn(t, rt, "tx", func(p *Proc) error {
		errCh <- p.SendRetry("rx", "x", RetryPolicy{Attempts: 4})
		return nil
	})
	if err := <-errCh; !errors.Is(err, ErrDelivery) {
		t.Fatalf("SendRetry under drop=1: got %v, want ErrDelivery", err)
	}
	rt.Quiesce()
	rt.Shutdown()
	waitClean(t, rt)

	// At drop=0.5 a handful of retries gets through (deterministic for
	// the fixed seed).
	plan2 := fault.New(fault.Config{Seed: 1, Drop: 0.5})
	rt2, buf := newRT(t, WithFaults(plan2))
	spawn(t, rt2, "rx", func(p *Proc) error {
		m, err := p.Recv()
		if err != nil {
			return err
		}
		p.Printf("rx got %v\n", m.Payload)
		return nil
	})
	spawn(t, rt2, "tx", func(p *Proc) error {
		return p.SendRetry("rx", "payload", RetryPolicy{Attempts: 64})
	})
	rt2.Quiesce()
	rt2.Shutdown()
	waitClean(t, rt2)
	if got := buf.String(); got != "rx got payload\n" {
		t.Fatalf("retry never delivered: %q (injected %v)", got, plan2.Injections())
	}
}

func TestRecvTimeout(t *testing.T) {
	rt, buf := newRT(t)
	spawn(t, rt, "lonely", func(p *Proc) error {
		if _, err := p.RecvTimeout(5 * time.Millisecond); !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("want ErrTimeout, got %v", err)
		}
		p.Printf("timed out\n")
		// A message that is already queued beats the deadline.
		if err := p.Send("lonely", "self"); err != nil {
			return err
		}
		m, err := p.RecvTimeout(time.Hour)
		if err != nil {
			return err
		}
		p.Printf("got %v\n", m.Payload)
		return nil
	})
	rt.Quiesce()
	rt.Shutdown()
	waitClean(t, rt)
	if got, want := buf.String(), "timed out\ngot self\n"; got != want {
		t.Fatalf("output %q, want %q", got, want)
	}
}

// TestRecvTimeoutReplaysDeterministically rolls a process back across a
// recorded timeout: the timeout entry sits in the retained log prefix, so
// the replay must reproduce ErrTimeout from the log without waiting out
// the deadline again.
func TestRecvTimeoutReplaysDeterministically(t *testing.T) {
	rt, buf := newRT(t)
	aidCh := make(chan AID, 1)
	spawn(t, rt, "speculator", func(p *Proc) error {
		x := p.NewAID()
		select { // replay re-executes this; only the first send matters
		case aidCh <- x:
		default:
		}
		// Recorded before the guess, so the rollback's replay prefix
		// re-consumes it from the log.
		if _, err := p.RecvTimeout(2 * time.Millisecond); !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("want ErrTimeout, got %v", err)
		}
		if p.Guess(x) {
			p.Printf("speculative\n")
			_, err := p.Recv() // parks until rollback or shutdown
			if errors.Is(err, ErrShutdown) {
				return nil
			}
			return err
		}
		p.Printf("denied\n")
		return nil
	})
	spawn(t, rt, "judge", func(p *Proc) error {
		return nil
	})
	x := <-aidCh
	// Give the speculator time to record timeout + guess, then deny.
	time.Sleep(20 * time.Millisecond)
	rt.mu.Lock()
	judge := rt.procs["judge"]
	rt.mu.Unlock()
	if err := rt.tr.Deny(judge.id, x.id); err != nil {
		t.Fatalf("Deny: %v", err)
	}
	rt.Quiesce()
	rt.Shutdown()
	waitClean(t, rt)
	if got, want := buf.String(), "denied\n"; got != want {
		t.Fatalf("output %q, want %q", got, want)
	}
}

func TestDuplicatesSuppressed(t *testing.T) {
	plan := fault.New(fault.Config{Dup: 1}) // duplicate every delivery
	o := obs.New()
	rt, buf := newRT(t, WithFaults(plan), WithObserver(o))
	const n = 8
	spawn(t, rt, "rx", func(p *Proc) error {
		for i := 0; i < n; i++ {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			p.Printf("got %v\n", m.Payload)
		}
		// Every extra copy must have been filtered, not queued.
		if _, err := p.RecvTimeout(10 * time.Millisecond); !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("duplicate leaked into the queue: %v", err)
		}
		return nil
	})
	spawn(t, rt, "tx", func(p *Proc) error {
		for i := 0; i < n; i++ {
			if err := p.Send("rx", i); err != nil {
				return err
			}
		}
		return nil
	})
	rt.Quiesce()
	rt.Shutdown()
	waitClean(t, rt)
	var want strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&want, "got %d\n", i)
	}
	if got := buf.String(); got != want.String() {
		t.Fatalf("receiver saw %q, want %q", got, want.String())
	}
	if got := o.Metrics().DupSuppressed.Load(); got != n {
		t.Fatalf("DupSuppressed = %d, want %d", got, n)
	}
}

func TestShutdownDrainDenyUnresolved(t *testing.T) {
	rt, buf := newRT(t)
	spawn(t, rt, "optimist", func(p *Proc) error {
		x := p.NewAID()
		if p.Guess(x) {
			p.Printf("speculative output\n") // must be aborted by the drain
			_, err := p.Recv()               // blocks forever: nobody resolves x
			if errors.Is(err, ErrShutdown) {
				return nil
			}
			return err
		}
		p.Printf("drained\n")
		return nil
	})
	rt.Quiesce()
	rt.ShutdownDrain(DrainDenyUnresolved)
	waitClean(t, rt)
	if got, want := buf.String(), "drained\n"; got != want {
		t.Fatalf("output %q, want %q — speculative effects must not leak", got, want)
	}
}

func TestShutdownDrainWaitSettled(t *testing.T) {
	rt, buf := newRT(t)
	aidCh := make(chan AID, 1)
	spawn(t, rt, "optimist", func(p *Proc) error {
		x := p.NewAID()
		aidCh <- x
		if p.Guess(x) {
			p.Printf("committed output\n")
		}
		return nil
	})
	spawn(t, rt, "resolver", func(p *Proc) error {
		// Parks in Recv; the test resolves x out of band on its behalf.
		_, err := p.Recv()
		if errors.Is(err, ErrShutdown) {
			return nil
		}
		return err
	})
	x := <-aidCh
	done := make(chan struct{})
	go func() {
		rt.ShutdownDrain(DrainWaitSettled)
		close(done)
	}()
	// The drain must not complete while x is unresolved.
	select {
	case <-done:
		t.Fatal("ShutdownDrain(DrainWaitSettled) returned with speculation live")
	case <-time.After(20 * time.Millisecond):
	}
	rt.mu.Lock()
	resolver := rt.procs["resolver"]
	rt.mu.Unlock()
	if err := rt.tr.Affirm(resolver.id, x.id); err != nil {
		t.Fatalf("Affirm: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not complete after the affirm")
	}
	waitClean(t, rt)
	if got, want := buf.String(), "committed output\n"; got != want {
		t.Fatalf("output %q, want %q", got, want)
	}
}

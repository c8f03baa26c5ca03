package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hope/internal/fault"
)

// A name exists before its Spawn: what is sent to it waits in its
// mailbox, in arrival order, and the process later spawned under the
// name receives it, tags and all — here three orphans of a self-denied
// guess ahead of their three replacements. Each case reaches the
// mailbox by its own path: synchronous delivery, the scheduler, and the
// scheduler with duplicates, delays and crashes injected.
func TestSendBeforeSpawn(t *testing.T) {
	plan := fault.New(fault.Config{Seed: 3, Dup: 0.5, Delay: 0.5, Crash: 0.2, MaxCrashes: 3})
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"sync", nil},
		{"latency", []Option{WithLatency(func(string, string) time.Duration { return time.Millisecond })}},
		{"faults", []Option{WithFaults(plan)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, buf := newRT(t, tc.opts...)
			spawn(t, rt, "early", func(p *Proc) error {
				x := p.NewAID()
				guessed := p.Guess(x)
				for i := 0; i < 3; i++ {
					if err := p.Send("late", fmt.Sprintf("%v%d", guessed, i)); err != nil {
						return err
					}
				}
				if guessed {
					return p.Deny(x)
				}
				return nil
			})
			rt.Quiesce() // early is done: all it sent waits for "late"
			spawn(t, rt, "late", func(p *Proc) error {
				for i := 0; i < 3; i++ {
					m, err := p.RecvSettled()
					if err != nil {
						return err
					}
					p.Printf("%v\n", m.Payload)
				}
				return nil
			})
			waitClean(t, rt)
			if got, want := buf.String(), "false0\nfalse1\nfalse2\n"; got != want {
				t.Fatalf("late committed %q, want %q", got, want)
			}
		})
	}
	if c := plan.Counts(); c[fault.Dup] == 0 || c[fault.Delay] == 0 || c[fault.Crash] == 0 {
		t.Fatalf("fault plan injected %v, want dups, delays and crashes", c)
	}
}

// A wire message may arrive before its destination is spawned: it parks
// like a local send, and the per-link duplicate filter it armed still
// suppresses a transport duplicate. The name, once spawned, is taken.
func TestInjectRemoteBeforeSpawn(t *testing.T) {
	rt, buf := newRT(t)
	for _, seq := range []uint64{1, 2, 2, 3} {
		rt.InjectRemote(WireMsg{From: "far", To: "late", Seq: seq, Payload: int(seq)})
	}
	body := func(p *Proc) error {
		for i := 0; i < 3; i++ {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			p.Printf("%v\n", m.Payload)
		}
		return nil
	}
	spawn(t, rt, "late", body)
	if err := rt.Spawn("late", body); !errors.Is(err, ErrDuplicateProc) {
		t.Fatalf("second Spawn(late) = %v, want ErrDuplicateProc", err)
	}
	waitClean(t, rt)
	if got, want := buf.String(), "1\n2\n3\n"; got != want {
		t.Fatalf("late committed %q, want %q", got, want)
	}
}

// A name sent to but never spawned is a mailbox, not a process: it holds
// no speculation, so a drain that waits for every process to settle
// completes; DebugString lists it; Shutdown drops what it holds; and
// Wait reports it as the unknown destination it is.
func TestNeverSpawnedNameIsReported(t *testing.T) {
	rt, _ := newRT(t)
	spawn(t, rt, "p", func(p *Proc) error { return p.Send("nobody", 1) })
	rt.Quiesce()
	if s := rt.DebugString(); !strings.Contains(s, "nobody") || !strings.Contains(s, "unspawned queue=1") {
		t.Fatalf("DebugString does not list the name sent to with its message:\n%s", s)
	}
	drained := make(chan struct{})
	go func() { rt.ShutdownDrain(DrainWaitSettled); close(drained) }()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatalf("ShutdownDrain waited on a name never spawned\n%s", rt.DebugString())
	}
	rt.mu.Lock()
	nobody := rt.procs["nobody"]
	rt.mu.Unlock()
	nobody.mu.Lock()
	held := nobody.queue.len()
	nobody.mu.Unlock()
	if held != 0 {
		t.Fatalf("nobody holds %d messages after Shutdown, want 0", held)
	}
	errs := rt.Wait()
	if len(errs) != 1 || !errors.Is(errs[0], ErrUnknownDest) || !strings.HasPrefix(errs[0].Error(), "nobody: ") {
		t.Fatalf("errs = %v, want nobody's unknown destination", errs)
	}
}

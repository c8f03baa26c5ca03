package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// counterState is the Loop state used across these tests.
type counterState struct {
	n       int
	history []int
}

func cloneCounter(s *counterState) *counterState {
	cp := &counterState{n: s.n, history: make([]int, len(s.history))}
	copy(cp.history, s.history)
	return cp
}

func TestLoopBasicProcessing(t *testing.T) {
	rt, _ := newRT(t)
	var final atomic.Int64
	err := Loop(rt, "acc",
		func() *counterState { return &counterState{} },
		cloneCounter,
		func(p *Proc, s *counterState) error {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			v := m.Payload.(int)
			if v < 0 {
				final.Store(int64(s.n))
				return ErrStopLoop
			}
			s.n += v
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	spawn(t, rt, "src", func(p *Proc) error {
		for i := 1; i <= 10; i++ {
			if err := p.Send("acc", i); err != nil {
				return err
			}
		}
		return p.Send("acc", -1)
	})
	waitClean(t, rt)
	if final.Load() != 55 {
		t.Fatalf("final = %d, want 55", final.Load())
	}
}

func TestLoopCompactsLog(t *testing.T) {
	// Definite traffic: the log must stay bounded (compacted every step)
	// instead of growing linearly with messages processed.
	rt, _ := newRT(t)
	var maxLog atomic.Int64
	err := Loop(rt, "acc",
		func() *counterState { return &counterState{} },
		cloneCounter,
		func(p *Proc, s *counterState) error {
			if l := int64(p.LogLen()); l > maxLog.Load() {
				maxLog.Store(l)
			}
			m, err := p.Recv()
			if err != nil {
				return err
			}
			if m.Payload.(int) < 0 {
				return ErrStopLoop
			}
			s.n++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	spawn(t, rt, "src", func(p *Proc) error {
		for i := 0; i < 500; i++ {
			if err := p.Send("acc", i); err != nil {
				return err
			}
		}
		return p.Send("acc", -1)
	})
	waitClean(t, rt)
	if got := maxLog.Load(); got > 8 {
		t.Fatalf("log grew to %d entries despite compaction", got)
	}
}

func TestLoopRollbackReplaysFromSnapshot(t *testing.T) {
	// Speculative messages roll the loop back; state must rewind to the
	// snapshot (not keep speculative mutations), then converge.
	rt, _ := newRT(t)
	aidCh := make(chan AID, 1)
	var final atomic.Int64
	err := Loop(rt, "acc",
		func() *counterState { return &counterState{} },
		cloneCounter,
		func(p *Proc, s *counterState) error {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			v := m.Payload.(int)
			if v < 0 {
				final.Store(int64(s.n))
				return ErrStopLoop
			}
			s.n += v
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	spawn(t, rt, "src", func(p *Proc) error {
		if err := p.Send("acc", 1); err != nil { // definite: snapshot boundary
			return err
		}
		x := p.NewAID()
		select {
		case aidCh <- x:
		default:
		}
		if p.Guess(x) {
			if err := p.Send("acc", 100); err != nil { // speculative, will be orphaned
				return err
			}
		} else {
			if err := p.Send("acc", 2); err != nil { // pessimistic replacement
				return err
			}
		}
		return p.Send("acc", -1)
	})
	spawn(t, rt, "verifier", func(p *Proc) error {
		return p.Deny(<-aidCh)
	})
	waitClean(t, rt)
	if final.Load() != 3 {
		t.Fatalf("final = %d, want 3 (1 definite + 2 pessimistic)", final.Load())
	}
}

func TestLoopSettledStateLivesInLog(t *testing.T) {
	// A settled boundary leaves exactly one entry, the checkpoint of the
	// state, and a rollback past it restores from log[0]: a restart (the
	// whole retained log replays), not a resume.
	rt, _ := newRT(t)
	aidCh := make(chan AID, 1)
	consumed := make(chan struct{}, 1)
	var (
		acc   atomic.Pointer[Proc]
		final atomic.Int64
		mu    sync.Mutex
		lens  []int // LogLen at the top of each live step
	)
	err := Loop(rt, "acc",
		func() *counterState { return &counterState{} },
		cloneCounter,
		func(p *Proc, s *counterState) error {
			acc.Store(p)
			mu.Lock()
			lens = append(lens, p.LogLen())
			mu.Unlock()
			m, err := p.Recv()
			if err != nil {
				return err
			}
			v := m.Payload.(int)
			switch {
			case v < 0:
				final.Store(int64(s.n))
				return ErrStopLoop
			case v == 100:
				select {
				case consumed <- struct{}{}:
				default:
				}
			}
			s.n += v
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	spawn(t, rt, "src", func(p *Proc) error {
		if err := p.Send("acc", 1); err != nil { // definite: a settled boundary
			return err
		}
		x := p.NewAID()
		select {
		case aidCh <- x:
		default:
		}
		v := 2
		if p.Guess(x) {
			v = 100 // consumed speculatively, then rolled back
		}
		if err := p.Send("acc", v); err != nil {
			return err
		}
		return p.Send("acc", -1)
	})
	spawn(t, rt, "verifier", func(p *Proc) error {
		x := <-aidCh
		<-consumed
		return p.Deny(x)
	})
	waitClean(t, rt)
	if final.Load() != 3 {
		t.Fatalf("final = %d, want 3 (1 settled + 2 pessimistic)", final.Load())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lens) < 2 || lens[1] != 1 {
		t.Fatalf("LogLen at the top of each step = %v, want 1 after the first compaction", lens)
	}
	if p := acc.Load(); p.Restarts() != 1 || p.Resumes() != 0 {
		t.Fatalf("restarts=%d resumes=%d, want 1/0 (a restore from log[0] replays the whole log)",
			p.Restarts(), p.Resumes())
	}
}

func TestLoopSnapshotIsolation(t *testing.T) {
	// Speculative in-place mutations of reference state must not leak
	// into the snapshot: the clone boundary protects it.
	rt, _ := newRT(t)
	aidCh := make(chan AID, 1)
	var history atomic.Value
	err := Loop(rt, "acc",
		func() *counterState { return &counterState{} },
		cloneCounter,
		func(p *Proc, s *counterState) error {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			v := m.Payload.(int)
			if v < 0 {
				cp := cloneCounter(s)
				history.Store(cp.history)
				return ErrStopLoop
			}
			s.history = append(s.history, v)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	spawn(t, rt, "src", func(p *Proc) error {
		for i := 1; i <= 3; i++ {
			if err := p.Send("acc", i); err != nil {
				return err
			}
		}
		x := p.NewAID()
		select {
		case aidCh <- x:
		default:
		}
		if p.Guess(x) {
			if err := p.Send("acc", 99); err != nil {
				return err
			}
		}
		// Give the accumulator time to consume 99 speculatively before
		// the denial, maximizing the chance the snapshot window is
		// crossed. (Timing-dependent but safe either way.)
		return p.Send("acc", -1)
	})
	spawn(t, rt, "verifier", func(p *Proc) error {
		x := <-aidCh
		time.Sleep(time.Millisecond)
		return p.Deny(x)
	})
	waitClean(t, rt)
	got, _ := history.Load().([]int)
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("history = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("history = %v, want %v", got, want)
		}
	}
}

func TestLoopShutdownStopsCleanly(t *testing.T) {
	rt, _ := newRT(t)
	err := Loop(rt, "srv",
		func() *counterState { return &counterState{} },
		cloneCounter,
		func(p *Proc, s *counterState) error {
			_, err := p.Recv()
			return err // ErrShutdown ends the loop without error
		})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	rt.Shutdown()
	for _, e := range rt.Wait() {
		if !errors.Is(e, ErrShutdown) {
			t.Fatalf("unexpected error: %v", e)
		}
	}
}

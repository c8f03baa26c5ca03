package occ

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hope/internal/engine"
	"hope/internal/testutil"
)

func newRT(t *testing.T, opts ...engine.Option) *engine.Runtime {
	t.Helper()
	rt := engine.New(append([]engine.Option{engine.WithOutput(io.Discard)}, opts...)...)
	t.Cleanup(rt.Shutdown)
	return rt
}

func quiesceShutdown(t *testing.T, rt *engine.Runtime) {
	t.Helper()
	done := make(chan struct{})
	go func() { rt.Quiesce(); rt.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("quiesce timed out")
	}
	for _, err := range rt.Wait() {
		t.Errorf("process error: %v", err)
	}
}

func TestReadThroughCache(t *testing.T) {
	rt := newRT(t)
	if err := ServePrimary(rt, "primary", map[string]any{"k": 7}); err != nil {
		t.Fatal(err)
	}
	var got1, got2 atomic.Int64
	if err := rt.Spawn("client", func(p *engine.Proc) error {
		s := NewSession(p, "primary")
		v, err := s.Read("k")
		if err != nil {
			return err
		}
		got1.Store(int64(v.(int)))
		v, err = s.Read("k") // cached
		if err != nil {
			return err
		}
		got2.Store(int64(v.(int)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	quiesceShutdown(t, rt)
	if got1.Load() != 7 || got2.Load() != 7 {
		t.Fatalf("reads = %d,%d, want 7,7", got1.Load(), got2.Load())
	}
}

func TestOptimisticWriteNoConflict(t *testing.T) {
	rt := newRT(t)
	if err := ServePrimary(rt, "primary", map[string]any{"k": 1}); err != nil {
		t.Fatal(err)
	}
	var optimistic atomic.Bool
	var final atomic.Int64
	if err := rt.Spawn("client", func(p *engine.Proc) error {
		s := NewSession(p, "primary")
		if _, err := s.Read("k"); err != nil {
			return err
		}
		ok, err := s.Update("k", func(any) any { return 2 })
		if err != nil {
			return err
		}
		optimistic.Store(ok)
		v, err := s.Read("k")
		if err != nil {
			return err
		}
		final.Store(int64(v.(int)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	quiesceShutdown(t, rt)
	if !optimistic.Load() {
		t.Fatal("conflict-free write should commit optimistically")
	}
	if final.Load() != 2 {
		t.Fatalf("final = %d, want 2", final.Load())
	}
}

func TestOptimisticWriteChainCommits(t *testing.T) {
	// A chain of optimistic writes by one client: every one should
	// commit optimistically (versions advance consistently).
	rt := newRT(t)
	if err := ServePrimary(rt, "primary", map[string]any{"k": 0}); err != nil {
		t.Fatal(err)
	}
	var commits atomic.Int64
	if err := rt.Spawn("client", func(p *engine.Proc) error {
		s := NewSession(p, "primary")
		for i := 1; i <= 10; i++ {
			ok, err := s.Update("k", func(any) any { return i })
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("write %d hit conflict unexpectedly", i)
			}
		}
		p.Effect(func() { commits.Store(int64(s.OptimisticCommits)) }, nil)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	quiesceShutdown(t, rt)
	if commits.Load() != 10 {
		t.Fatalf("optimistic commits = %d, want 10", commits.Load())
	}
}

func TestConflictForcesPessimisticPath(t *testing.T) {
	// Client B writes with a stale cache: its optimistic write must be
	// denied, rolled back, and reconciled synchronously.
	rt := newRT(t)
	if err := ServePrimary(rt, "primary", map[string]any{"k": 0}); err != nil {
		t.Fatal(err)
	}
	bStarted := make(chan struct{})
	aDone := make(chan struct{})
	var aOnce, bOnce sync.Once
	var bOptimistic atomic.Bool
	bOptimistic.Store(true)
	var bConflicts, finalVal atomic.Int64

	if err := rt.Spawn("a", func(p *engine.Proc) error {
		//hopevet:ignore nondeterminism -- close-only test barrier; a re-receive never blocks
		<-bStarted // B has cached version 1
		s := NewSession(p, "primary")
		if err := s.WriteSync("k", 100); err != nil { // bumps version
			return err
		}
		aOnce.Do(func() { close(aDone) }) // idempotent across replay
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Spawn("b", func(p *engine.Proc) error {
		s := NewSession(p, "primary")
		if _, err := s.Read("k"); err != nil { // cache version 1
			return err
		}
		bOnce.Do(func() { close(bStarted) })
		//hopevet:ignore nondeterminism -- close-only test barrier; a re-receive never blocks
		<-aDone // now the cache is stale
		ok, err := s.Update("k", func(any) any { return 200 })
		if err != nil {
			return err
		}
		if !ok {
			bOptimistic.Store(false)
		}
		p.Effect(func() { bConflicts.Store(int64(s.Conflicts)) }, nil)
		v, err := s.Refresh("k")
		if err != nil {
			return err
		}
		finalVal.Store(int64(v.(int)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	quiesceShutdown(t, rt)
	if bOptimistic.Load() {
		t.Fatal("stale write should not commit optimistically")
	}
	if bConflicts.Load() != 1 {
		t.Fatalf("conflicts = %d, want 1", bConflicts.Load())
	}
	if finalVal.Load() != 200 {
		t.Fatalf("final = %d, want 200 (B's reconciled write)", finalVal.Load())
	}
}

func TestSpeculativeReadOfOptimisticWriteRollsBack(t *testing.T) {
	// Downstream computation on a speculative write must be undone on
	// conflict: output gated by effects shows only the reconciled value.
	buf := &testutil.SyncBuffer{}
	rt := engine.New(engine.WithOutput(buf))
	t.Cleanup(rt.Shutdown)
	if err := ServePrimary(rt, "primary", map[string]any{"k": 0}); err != nil {
		t.Fatal(err)
	}
	ready := make(chan struct{})
	if err := rt.Spawn("a", func(p *engine.Proc) error {
		s := NewSession(p, "primary")
		if err := s.WriteSync("k", 5); err != nil {
			return err
		}
		close(ready)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Spawn("b", func(p *engine.Proc) error {
		s := NewSession(p, "primary")
		if _, err := s.Read("k"); err != nil { // version 1 (value 0)
			return err
		}
		//hopevet:ignore nondeterminism -- close-only test barrier; a re-receive never blocks
		<-ready // primary now at version 2
		if _, err := s.Update("k", func(any) any { return 9 }); err != nil {
			return err
		}
		v, err := s.Read("k")
		if err != nil {
			return err
		}
		p.Printf("value=%v\n", v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	quiesceShutdown(t, rt)
	if got := buf.String(); got != "value=9\n" {
		t.Fatalf("output = %q, want only the committed value=9", got)
	}
}

func TestTwoClientsContending(t *testing.T) {
	// Both clients increment the same counter via read-modify-write
	// Update; conflicts re-apply the increment, so no update is lost and
	// the final counter equals the total number of increments.
	rt := newRT(t)
	if err := ServePrimary(rt, "primary", map[string]any{"n": 0}); err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	inc := func(v any) any { return v.(int) + 1 }
	clientBody := func(p *engine.Proc) error {
		s := NewSession(p, "primary")
		for i := 0; i < rounds; i++ {
			if _, err := s.Refresh("n"); err != nil {
				return err
			}
			if _, err := s.Update("n", inc); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rt.Spawn("c1", clientBody); err != nil {
		t.Fatal(err)
	}
	if err := rt.Spawn("c2", clientBody); err != nil {
		t.Fatal(err)
	}
	// Let the contention settle, then audit the primary in-place.
	rt.Quiesce()
	var finalN atomic.Int64
	if err := rt.Spawn("auditor", func(p *engine.Proc) error {
		s := NewSession(p, "primary")
		v, err := s.Refresh("n")
		if err != nil {
			return err
		}
		finalN.Store(int64(v.(int)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	quiesceShutdown(t, rt)
	if finalN.Load() != 2*rounds {
		t.Fatalf("final n = %d, want %d (no lost updates)", finalN.Load(), 2*rounds)
	}
}

func TestOptimisticFasterThanSyncUnderLatency(t *testing.T) {
	const delay = 3 * time.Millisecond
	const writes = 10
	run := func(optimistic bool) time.Duration {
		rt := engine.New(
			engine.WithOutput(io.Discard),
			engine.WithLatency(func(from, to string) time.Duration { return delay }),
		)
		defer rt.Shutdown()
		if err := ServePrimary(rt, "primary", map[string]any{"k": 0}); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := rt.Spawn("client", func(p *engine.Proc) error {
			s := NewSession(p, "primary")
			if _, err := s.Read("k"); err != nil {
				return err
			}
			for i := 0; i < writes; i++ {
				if optimistic {
					if _, err := s.Update("k", func(any) any { return i }); err != nil {
						return err
					}
				} else {
					if err := s.WriteSync("k", i); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		rt.Quiesce()
		elapsed := time.Since(start)
		rt.Shutdown()
		rt.Wait()
		return elapsed
	}
	syncT := run(false)
	optT := run(true)
	if optT >= syncT {
		t.Fatalf("optimistic %v not faster than sync %v", optT, syncT)
	}
	t.Logf("sync=%v optimistic=%v speedup=%.1fx", syncT, optT, float64(syncT)/float64(optT))
}

//go:build go1.24

package engine

import (
	"io"
	"runtime"
	"testing"
	"time"
	"weak"
)

// idleAtLeast waits until n process goroutines wait for work.
func idleAtLeast(t *testing.T, n int32) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for idleProcs.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d process goroutines wait, want at least %d", idleProcs.Load(), n)
		}
		runtime.Gosched()
	}
}

// TestSpawnReusesProcessGoroutines checks that a process started after
// others finished runs on one of their goroutines, whatever runtime it
// belongs to: four finished processes leave four waiting goroutines, and
// four processes of a second runtime, parked in Recv, start no new one.
func TestSpawnReusesProcessGoroutines(t *testing.T) {
	const n = 4
	first, _ := newRT(t)
	for _, name := range []string{"a", "b", "c", "d"} {
		spawn(t, first, name, func(p *Proc) error { return nil })
	}
	waitClean(t, first)
	idleAtLeast(t, n)

	second, _ := newRT(t)
	before := runtime.NumGoroutine()
	for _, name := range []string{"a", "b", "c", "d"} {
		spawn(t, second, name, func(p *Proc) error {
			_, err := p.Recv()
			return err
		})
	}
	second.Quiesce()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after spawning %d processes onto %d waiting ones, %d before", after, n, n, before)
	}
}

// TestFinishedRuntimeReleased checks that a goroutine waiting for its
// next process keeps nothing of the last one: once a runtime whose
// process finished is shut down and dropped, a collection frees it.
func TestFinishedRuntimeReleased(t *testing.T) {
	var held weak.Pointer[Runtime]
	func() {
		rt := New(WithOutput(io.Discard))
		held = weak.Make(rt)
		if err := rt.Spawn("p", func(p *Proc) error { return nil }); err != nil {
			t.Fatal(err)
		}
		rt.Wait()
		rt.Shutdown()
	}()
	idleAtLeast(t, 1)
	runtime.GC()
	if held.Value() != nil {
		t.Fatal("a shut-down runtime stays reachable after its process goroutine went idle")
	}
}

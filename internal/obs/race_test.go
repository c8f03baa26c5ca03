package obs

import (
	"io"
	"sync"
	"testing"

	"hope/internal/ids"
)

// TestConcurrentEmittersAndReaders hammers one Observer from many
// emitting goroutines (the shape of a rollback storm: every tracker and
// engine hook firing at once) while readers concurrently snapshot
// metrics, drain the ring, and export traces. Run under -race via
// scripts/check.sh; correctness assertions check that no event is lost
// or double-counted.
func TestConcurrentEmittersAndReaders(t *testing.T) {
	const (
		emitters  = 8
		perEmit   = 2000
		readers   = 4
		ringSize  = 512
		perReader = 50
	)
	o := New(WithEventCapacity(ringSize))
	for p := 1; p <= emitters; p++ {
		o.RegisterProc(ids.Proc(p), "emitter")
	}

	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := ids.Proc(g + 1)
			for i := 0; i < perEmit; i++ {
				switch i % 6 {
				case 0:
					o.Emit(KGuessOpened, p, ids.AID(i+1), ids.Interval(i+1), 0)
				case 1:
					o.Emit(KDenied, p, ids.AID(i), 0, 0)
				case 2:
					o.Emit(KRolledBack, p, 0, ids.Interval(i), int64(i))
				case 3:
					o.Emit(KRollbackStarted, p, 0, 0, int64(i%32))
					o.Emit(KReplayed, p, 0, 0, int64(i%32))
				case 4:
					o.MsgEnqueued(i % 64)
					o.ClassifyScan(i%8, i%3)
				case 5:
					o.Annotate("emitter", "tick")
					o.SchedHeap(i % 128)
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				_ = o.Snapshot()
				events, _ := o.Events()
				for j := 1; j < len(events); j++ {
					if events[j].Seq != events[j-1].Seq+1 {
						t.Errorf("ring window not contiguous: seq %d after %d",
							events[j].Seq, events[j-1].Seq)
						return
					}
				}
				if err := o.WriteChromeTrace(io.Discard); err != nil {
					t.Errorf("chrome export: %v", err)
					return
				}
				_ = o.Dump()
			}
		}()
	}
	wg.Wait()

	// Every emitter contributed a deterministic event mix; totals must
	// be exact (no lost updates).
	m := o.Metrics().Snapshot()
	count := func(rem int) int64 {
		n := 0
		for i := 0; i < perEmit; i++ {
			if i%6 == rem {
				n++
			}
		}
		return int64(n * emitters)
	}
	if m.GuessesOpened != count(0) {
		t.Errorf("GuessesOpened = %d, want %d", m.GuessesOpened, count(0))
	}
	if m.Denies != count(1) {
		t.Errorf("Denies = %d, want %d", m.Denies, count(1))
	}
	if m.RolledBack != count(2) {
		t.Errorf("RolledBack = %d, want %d", m.RolledBack, count(2))
	}
	if m.Rollbacks != count(3) {
		t.Errorf("Rollbacks = %d, want %d", m.Rollbacks, count(3))
	}
	if m.Annotations != count(5) {
		t.Errorf("Annotations = %d, want %d", m.Annotations, count(5))
	}
	// One event per guess, deny, discard and annotation; two per rollback
	// (started + replayed).
	total := uint64(count(0) + count(1) + count(2) + 2*count(3) + count(5))
	events, dropped := o.Events()
	if uint64(len(events))+dropped != total {
		t.Errorf("ring accounting: %d retained + %d dropped != %d emitted",
			len(events), dropped, total)
	}
	if got := o.Snapshot().EventsRecorded; got != total {
		t.Errorf("EventsRecorded = %d, want %d", got, total)
	}
}

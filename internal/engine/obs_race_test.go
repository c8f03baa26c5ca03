package engine

import (
	"io"
	"sync"
	"testing"
	"time"

	"hope/internal/obs"
)

// TestObserverDuringRollbackStorm attaches a live observer to a runtime
// under a rollback storm — several speculative workers whose assumptions
// a judge denies one-third of the time — while reader goroutines
// concurrently snapshot metrics, drain the event ring, and export
// traces. Run under -race via scripts/check.sh, it checks that
// observation from outside never wedges or corrupts the runtime, and
// that the storm's lifecycle shows up in the metrics.
func TestObserverDuringRollbackStorm(t *testing.T) {
	const (
		workers = 4
		rounds  = 12
		readers = 3
	)
	o := obs.New(obs.WithEventCapacity(256)) // small ring: force overflow
	rt, _ := newRT(t, WithObserver(o))

	// Receiver first: see TestManyProcessesStress.
	spawn(t, rt, "judge", func(p *Proc) error {
		i := 0
		for {
			m, err := p.Recv()
			if err != nil {
				return nil // shutdown: all live speculation settled
			}
			i++
			a := m.Payload.(AID)
			if i%3 == 0 {
				if err := p.Deny(a); err != nil {
					return err
				}
			} else if err := p.Affirm(a); err != nil {
				return err
			}
		}
	})
	for w := 0; w < workers; w++ {
		spawn(t, rt, "worker"+string(rune('A'+w)), func(p *Proc) error {
			for i := 0; i < rounds; i++ {
				x := p.NewAID()
				if err := p.Send("judge", x); err != nil {
					return err
				}
				if p.Guess(x) {
					p.Printf("optimistic %d\n", i)
				} else {
					p.Printf("pessimistic %d\n", i)
				}
			}
			return nil
		})
	}

	stop := make(chan struct{})
	var rg sync.WaitGroup
	for g := 0; g < readers; g++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = o.Snapshot()
				events, _ := o.Events()
				for j := 1; j < len(events); j++ {
					if events[j].Seq != events[j-1].Seq+1 {
						t.Errorf("ring window not contiguous: %d after %d",
							events[j].Seq, events[j-1].Seq)
						return
					}
				}
				if err := o.WriteChromeTrace(io.Discard); err != nil {
					t.Errorf("chrome export: %v", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	rt.Quiesce()
	rt.Shutdown()
	for _, err := range rt.Wait() {
		if err != nil {
			t.Errorf("process error: %v", err)
		}
	}
	close(stop)
	rg.Wait()

	m := o.Metrics().Snapshot()
	if m.GuessesOpened == 0 || m.Rollbacks == 0 || m.Committed == 0 || m.RolledBack == 0 {
		t.Fatalf("storm left no lifecycle trail: %+v", m)
	}
	events, dropped := o.Events()
	if total := o.Snapshot().EventsRecorded; uint64(len(events))+dropped != total {
		t.Fatalf("ring accounting: %d retained + %d dropped != %d recorded",
			len(events), dropped, total)
	}
}

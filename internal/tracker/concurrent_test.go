package tracker

import (
	"math/rand"
	"sync"
	"testing"

	"hope/internal/ids"
)

// TestConcurrentClassificationCoherence drives N reader goroutines that
// repeatedly classify published tag sets through the epoch cache while M
// mutator processes guess, affirm, deny, and roll back — the contract
// under test being the DESIGN.md coherence argument: a cached verdict is
// indistinguishable from a fresh classification whenever the resolution
// epoch has not advanced past its stamp, and a settled verdict never
// regresses. CheckInvariants is interleaved throughout (it shares the
// read lock, so it snapshots between operations). Run under -race this
// also exercises the RWMutex read-path conversion.
func TestConcurrentClassificationCoherence(t *testing.T) {
	tr := New()
	const mutators = 4
	const readers = 4
	const iters = 300

	var pub struct {
		sync.Mutex
		sets [][]ids.AID
	}
	publish := func(tags []ids.AID) {
		if len(tags) == 0 {
			return
		}
		pub.Lock()
		pub.sets = append(pub.sets, tags)
		pub.Unlock()
	}
	snapshot := func() [][]ids.AID {
		pub.Lock()
		defer pub.Unlock()
		return pub.sets[:len(pub.sets):len(pub.sets)]
	}

	var mutWG, readWG sync.WaitGroup
	done := make(chan struct{})

	for m := 0; m < mutators; m++ {
		mutWG.Add(1)
		go func(seed int64) {
			defer mutWG.Done()
			rng := rand.New(rand.NewSource(seed))
			p := tr.Register(noopHooks{})
			for i := 0; i < iters; i++ {
				if tr.PendingRollback(p) {
					tr.TakePending(p)
				}
				x := tr.NewAID()
				if _, err := tr.Guess(p, x, i); err != nil {
					if err == ErrRolledBack {
						tr.TakePending(p)
						continue
					}
					t.Errorf("guess: %v", err)
					return
				}
				if tags, err := tr.Tag(p); err == nil {
					publish(tags)
				}
				var err error
				if rng.Intn(100) < 60 {
					err = tr.Affirm(p, x)
				} else {
					// Denying an assumption the process itself depends on
					// is a definite deny: it rolls the process back,
					// exercising the cascade paths under contention.
					err = tr.Deny(p, x)
				}
				if err != nil && err != ErrRolledBack && err != ErrConflict {
					t.Errorf("resolve: %v", err)
					return
				}
			}
			// Drop any pending rollback so the final state is quiescent
			// for the post-run validation.
			tr.TakePending(p)
		}(int64(m + 1))
	}

	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			caches := make(map[int]*TagClass)
			rounds := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				rounds++
				sets := snapshot()
				for idx, tags := range sets {
					c := caches[idx]
					if c == nil {
						c = &TagClass{}
						caches[idx] = c
					}
					wasSettled := tr.ClassCurrent(c) && c.Settled
					// The summed shard epochs are monotone and move on exactly
					// the settle commits that resolve something, so an unchanged
					// sum brackets both classifications in one resolution state.
					e1 := tr.epochSum(tr.allMask)
					s, o := tr.ClassifyCached(tags, c)
					sf, of := tr.Settled(tags)
					e2 := tr.epochSum(tr.allMask)
					if e1 == e2 && (s != sf || o != of) {
						t.Errorf("cached verdict (settled=%v orphan=%v) disagrees with fresh (settled=%v orphan=%v) at stable epoch %d",
							s, o, sf, of, e1)
						return
					}
					if wasSettled && !sf {
						t.Errorf("settled verdict regressed: fresh says settled=%v orphan=%v", sf, of)
						return
					}
				}
				if rounds%16 == 0 {
					if err := tr.CheckInvariants(); err != nil {
						t.Errorf("invariants: %v", err)
						return
					}
				}
			}
		}()
	}

	mutWG.Wait()
	close(done)
	readWG.Wait()

	// Post-run: every cached verdict revalidated at the final epoch must
	// match a fresh classification, and the invariants must hold.
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("final invariants: %v", err)
	}
	for _, tags := range snapshot() {
		var c TagClass
		s, o := tr.ClassifyCached(tags, &c)
		sf, of := tr.Settled(tags)
		if s != sf || o != of {
			t.Fatalf("quiescent cached verdict (settled=%v orphan=%v) != fresh (settled=%v orphan=%v)", s, o, sf, of)
		}
	}
}

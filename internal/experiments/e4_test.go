package experiments

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"hope/internal/engine"
	"hope/internal/obs"
	"hope/internal/scenario"
	"hope/internal/tracker"
)

// Rollback cascades (Equation 24 + Theorem 5.1, operationally) and
// checkpoint-bounded recovery (§7's checkpointing future work). The
// counts are exact, so those halves also run under the race detector.

// cascade builds a head process speculating `depth` nested assumptions,
// forwarding a value through `procs` relay processes (each becoming a
// transitive dependent), then denies the innermost or outermost
// assumption, affirms the rest, and returns the tracker's counts once
// everything settled.
func cascade(depth, procs int, denyOutermost bool) (tracker.Stats, error) {
	rt := engine.New(engine.WithOutput(io.Discard))
	defer rt.Shutdown()

	aidCh := make(chan []engine.AID, 1)
	relayName := func(i int) string { return fmt.Sprintf("relay%d", i) }

	// Receivers before senders, down the chain: each forward must find
	// its destination registered (ErrUnknownDest is not retried).
	for i := procs - 1; i >= 0; i-- {
		i := i
		if err := rt.Spawn(relayName(i), func(p *engine.Proc) error {
			m, err := p.Recv()
			if err != nil {
				if errors.Is(err, engine.ErrShutdown) {
					return nil
				}
				return err
			}
			if i+1 < procs {
				return p.Send(relayName(i+1), m.Payload)
			}
			return nil
		}); err != nil {
			return tracker.Stats{}, err
		}
	}

	// Head: nest `depth` guesses, then send through the relay chain.
	if err := rt.Spawn("head", func(p *engine.Proc) error {
		aids := make([]engine.AID, depth)
		for i := range aids {
			aids[i] = p.NewAID()
		}
		select {
		case aidCh <- aids: //hopevet:ignore escape -- out-of-band AID handoff to the harness; the external denial is the experiment
		default:
		}
		taken := 0
		for _, x := range aids {
			if p.Guess(x) {
				taken++
			}
		}
		if procs > 0 {
			if err := p.Send(relayName(0), taken); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return tracker.Stats{}, err
	}

	// Let the speculation spread fully, then deny.
	rt.Quiesce()
	aids := <-aidCh
	if err := rt.Spawn("denier", func(p *engine.Proc) error {
		x := aids[len(aids)-1]
		if denyOutermost {
			x = aids[0]
		}
		if err := p.Deny(x); err != nil {
			return err
		}
		// Resolve the rest so everything settles.
		for _, y := range aids {
			if err := p.Affirm(y); err != nil && !errors.Is(err, engine.ErrConflict) {
				return err
			}
		}
		return nil
	}); err != nil {
		return tracker.Stats{}, err
	}
	_, err := scenario.Settle(rt, time.Now())
	return rt.TrackerStats(), err
}

func TestE4ShapeCascadeScalesWithSuffix(t *testing.T) {
	// Denying the outermost of a deep chain discards more intervals than
	// denying the innermost.
	outerStats, err := cascade(16, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	innerStats, err := cascade(16, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if outerStats.RolledBack != 16 {
		t.Fatalf("outermost deny rolled back %d intervals, want 16 (Theorem 5.1)", outerStats.RolledBack)
	}
	if innerStats.RolledBack != 1 {
		t.Fatalf("innermost deny rolled back %d intervals, want 1", innerStats.RolledBack)
	}
}

func TestE4RelaysJoinTheCascade(t *testing.T) {
	st, err := cascade(1, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	// 1 head interval + 4 relay implicit intervals.
	if st.RolledBack != 5 {
		t.Fatalf("rolled back %d, want 5 (transitive cascade)", st.RolledBack)
	}
}

// spin burns a deterministic slice of CPU (~1µs) derived from seed, so
// each logged step in the recovery harness carries real re-execution
// cost that the compiler cannot elide.
func spin(seed uint64) uint64 {
	x := seed | 1
	for i := 0; i < 1000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// e4bState is the harness worker's checkpointed progress (values only,
// so the interface copy is a deep copy).
type e4bState struct {
	I   int
	Sum uint64
	Pin engine.AID
}

// historyRecovery builds one worker whose retained log is h work steps
// deep — a pin assumption holds the window open — then denies a late
// assumption guessed at the very end and measures settlement: the
// rollback's replay must re-execute everything after the restore point.
// With cpEvery > 0 the worker checkpoints during the window, so recovery
// replays at most cpEvery steps no matter how large h is; with 0 it
// replays all h. Returns the recovery time and the replayed entry count.
func historyRecovery(h, cpEvery int) (time.Duration, int64, error) {
	o := obs.New(obs.WithEventCapacity(0))
	rt := engine.New(engine.WithOutput(io.Discard), engine.WithObserver(o))
	defer rt.Shutdown()

	aidCh := make(chan engine.AID, 1)
	if err := rt.Spawn("worker", func(p *engine.Proc) error {
		var s e4bState
		if v, ok := p.Restored(); ok {
			s = v.(e4bState)
		} else {
			s.Pin = p.NewAID()
			if !p.Guess(s.Pin) {
				return nil // only a shutdown drain denies the pin
			}
		}
		for s.I < h {
			s.Sum += spin(uint64(p.Rand()))
			s.I++
			if cpEvery > 0 && s.I%cpEvery == 0 {
				p.Checkpoint(s)
			}
		}
		late := p.NewAID()
		select {
		case aidCh <- late: //hopevet:ignore escape -- out-of-band AID handoff to the harness; the external denial is the experiment
		default:
		}
		if p.Guess(late) {
			_, err := p.Recv() // parks until the deny unwinds it
			if errors.Is(err, engine.ErrShutdown) {
				return nil
			}
			return err
		}
		return p.Affirm(s.Pin)
	}); err != nil {
		return 0, 0, err
	}

	// Let the worker build its full history, then deny and time recovery.
	rt.Quiesce()
	late := <-aidCh
	start := time.Now()
	if err := rt.Spawn("denier", func(p *engine.Proc) error {
		return p.Deny(late)
	}); err != nil {
		return 0, 0, err
	}
	elapsed, err := scenario.Settle(rt, start)
	return elapsed, o.Metrics().Snapshot().ReplayedEnts, err
}

// TestE4bShapeCheckpointBoundsReplay: recovery after a late deny
// replays from the last checkpoint, not from the start of the window.
// The replayed-entry count is exact, so that half also runs under the
// race detector; the other half is cp_flatness, the checkpointed
// recovery-time ratio between the deepest and shallowest history
// (1.0–1.4x over 10 runs; without checkpoints the same ratio is 10–12x).
func TestE4bShapeCheckpointBoundsReplay(t *testing.T) {
	const cpEvery = 32
	// History depths sit 16 past a checkpoint boundary so the rollback
	// always replays a genuine 16-step suffix rather than landing on a
	// checkpoint taken at the very end of the window.
	depths := []int{80, 272, 1040}
	best := map[int]time.Duration{}
	// Best of 5, depth by depth within each round: five back-to-back
	// tries of one depth span a millisecond, and one GC cycle then
	// slows them all.
	for try := 0; try < 5; try++ {
		for _, h := range depths {
			elapsed, replayed, err := historyRecovery(h, cpEvery)
			if err != nil {
				t.Fatal(err)
			}
			// 16 work steps since the checkpoint, the late guess and
			// the restore bookkeeping: the same at every depth.
			if replayed != 18 {
				t.Fatalf("history %d, checkpoint every %d: replayed %d entries, want 18", h, cpEvery, replayed)
			}
			if best[h] == 0 || elapsed < best[h] {
				best[h] = elapsed
			}
		}
	}
	for _, h := range depths {
		_, replayed, err := historyRecovery(h, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(h + 4); replayed != want {
			t.Fatalf("history %d, no checkpoints: replayed %d entries, want %d (the whole window)", h, replayed, want)
		}
	}
	if raceEnabled {
		return // the ratio below is wall-clock
	}
	deep, shallow := best[depths[len(depths)-1]], best[depths[0]]
	flat := float64(deep) / float64(shallow)
	if flat > 2 {
		t.Fatalf("cp_flatness = %.2fx (%v at depth %d vs %v at %d), want ≤ 2x: recovery cost grows with history",
			flat, deep, depths[len(depths)-1], shallow, depths[0])
	}
	t.Logf("cp_flatness = %.2fx", flat)
}

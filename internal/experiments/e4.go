package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"hope/internal/engine"
	"hope/internal/obs"
	"hope/internal/scenario"
	"hope/internal/tracker"
)

// cascade builds a head process speculating `depth` nested assumptions,
// forwarding a value through `procs` relay processes (each becoming a
// transitive dependent), then denies the innermost or outermost
// assumption and measures settlement.
func cascade(depth, procs int, denyOutermost bool) (time.Duration, tracker.Stats, error) {
	type stats = tracker.Stats
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
			return 0, stats{}, err
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
		return 0, stats{}, err
	}

	// Let the speculation spread fully, then deny and time settlement.
	rt.Quiesce()
	aids := <-aidCh
	start := time.Now()
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
		return 0, stats{}, err
	}
	elapsed, err := scenario.Settle(rt, start)
	return elapsed, rt.TrackerStats(), err
}

// E4RollbackDepth characterizes Equation 24 + Theorem 5.1 operationally:
// the cost of a definite deny as a function of how deep the speculation
// nests (intervals per process) and how far it has spread (transitive
// dependents across processes). Denying the outermost assumption
// truncates the whole chain; denying the innermost truncates one
// interval.
func E4RollbackDepth(w io.Writer) error {
	t := newTable("E4: rollback cascade cost",
		"depth", "relays", "deny", "settle", "intervals rolled back")
	for _, depth := range []int{1, 4, 16, 64} {
		for _, relays := range []int{0, 4, 15} {
			for _, outer := range []bool{true, false} {
				elapsed, st, err := cascade(depth, relays, outer)
				if err != nil {
					return err
				}
				which := "innermost"
				if outer {
					which = "outermost"
				}
				t.AddRow(depth, relays, which, elapsed, st.RolledBack)
			}
		}
	}
	if err := render(w, t); err != nil {
		return err
	}
	return e4bHistoryRecovery(w)
}

// spin burns a deterministic slice of CPU (~1µs) derived from seed, so
// each logged step in the E4b harness carries real re-execution cost
// that the compiler cannot elide.
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

// e4bHistoryRecovery is the incremental-checkpointing ablation (§7's
// checkpointing future work, PR 8 tentpole): recovery cost as a function
// of history depth, with and without checkpoints. Without them the
// rollback replays the whole window, so cost grows linearly in h; with
// WithCheckpointEvery-style checkpoints every 32 steps it replays a
// bounded suffix and stays flat. cp_flatness is the checkpointed
// recovery-time ratio between the deepest and shallowest history
// buckets — ~1.0 when recovery is O(checkpoint interval), the number
// TestE4bShapeCheckpointBoundsReplay holds at ≤ 2.
func e4bHistoryRecovery(w io.Writer) error {
	const cpInterval = 32
	// History depths sit 16 past a checkpoint boundary so the rollback
	// always replays a genuine 16-step suffix rather than landing on a
	// checkpoint taken at the very end of the window.
	buckets := []int{80, 272, 1040}
	t := newTable("E4b: recovery cost vs history depth (checkpoint every 32)",
		"history", "checkpoints", "recovery", "replayed entries")
	recovery := map[[2]int]time.Duration{}
	for _, h := range buckets {
		for _, cpEvery := range []int{0, cpInterval} {
			best, replayed := time.Duration(0), int64(0)
			for try := 0; try < 5; try++ { // best-of-5: settle times are µs-scale
				elapsed, ents, err := historyRecovery(h, cpEvery)
				if err != nil {
					return err
				}
				if best == 0 || elapsed < best {
					best, replayed = elapsed, ents
				}
			}
			recovery[[2]int{h, cpEvery}] = best
			mode := "off"
			if cpEvery > 0 {
				mode = fmt.Sprintf("every %d", cpEvery)
			}
			t.AddRow(h, mode, best, replayed)
		}
	}
	if err := render(w, t); err != nil {
		return err
	}

	s := newTable("E4b summary", "metric", "value")
	deep, shallow := buckets[len(buckets)-1], buckets[0]
	flat := float64(recovery[[2]int{deep, cpInterval}]) / float64(recovery[[2]int{shallow, cpInterval}])
	grow := float64(recovery[[2]int{deep, 0}]) / float64(recovery[[2]int{shallow, 0}])
	s.AddRow("cp_flatness", fmt.Sprintf("%.2fx", flat))
	s.AddRow("nocp_growth", fmt.Sprintf("%.2fx", grow))
	return render(w, s)
}

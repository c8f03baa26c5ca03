package engine

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hope/internal/fault"
	"hope/internal/obs"
)

// cpWorkState is the checkpointed loop state of the long-history worker
// below. All fields are values, so the interface copy in Checkpoint is a
// deep copy.
type cpWorkState struct {
	I, Sum int
	Pin    AID
}

// runLongHistory runs one worker that pins a window open, grinds through
// H logged steps (checkpointing every cpEvery of them when cpEvery > 0),
// then guesses a late assumption it denies itself (§5.3) — a rollback
// whose target sits at the very end of a long retained log. The replayed
// pass takes the pessimistic branch and affirms the pin while definite.
// It returns the committed output, the worker, and the observer.
func runLongHistory(t *testing.T, h, cpEvery int) (string, *Proc, *obs.Observer, *Runtime) {
	t.Helper()
	o := obs.New(obs.WithEventCapacity(0))
	rt, buf := newRT(t, WithObserver(o))
	var worker *Proc
	var captured sync.Once

	spawn(t, rt, "worker", func(p *Proc) error {
		captured.Do(func() { worker = p })
		var s cpWorkState
		if v, ok := p.Restored(); ok {
			s = v.(cpWorkState)
		} else {
			s.Pin = p.NewAID()
			if !p.Guess(s.Pin) {
				return nil // only a shutdown drain denies the pin
			}
		}
		for s.I < h {
			s.Sum += int(p.Rand() % 97)
			s.I++
			if cpEvery > 0 && s.I%cpEvery == 0 {
				p.Checkpoint(s)
			}
		}
		late := p.NewAID()
		verdict := "opt"
		if !p.Guess(late) {
			verdict = "pess"
		}
		p.Printf("%s sum=%d\n", verdict, s.Sum)
		// The self-deny unwinds the optimistic pass at this very call;
		// the replayed pass finds late already denied (idempotent no-op)
		// and goes on to settle the pin.
		if err := p.Deny(late); err != nil && !errors.Is(err, ErrConflict) {
			return err
		}
		return p.Affirm(s.Pin)
	})
	rt.Quiesce()
	rt.Shutdown()
	waitClean(t, rt)
	return buf.String(), worker, o, rt
}

// TestCheckpointRestoreShortensReplay is the tentpole's unit-level
// check: with checkpoints the deny-rollback over a long history resumes
// from the newest surviving checkpoint (a Resume, replaying only the
// suffix); without them the same rollback replays the whole history (a
// Restart). The committed output is identical either way.
func TestCheckpointRestoreShortensReplay(t *testing.T) {
	const h = 200
	plain, pw, po, _ := runLongHistory(t, h, 0)
	cp, cw, co, rt := runLongHistory(t, h, 16)

	if cp != plain {
		t.Fatalf("output diverged\nplain:\n%s\ncheckpointed:\n%s", plain, cp)
	}
	if !strings.HasPrefix(cp, "pess sum=") {
		t.Fatalf("output %q, want the pessimistic line", cp)
	}
	if pw.Restarts() != 1 || pw.Resumes() != 0 {
		t.Fatalf("plain worker: restarts=%d resumes=%d, want 1/0", pw.Restarts(), pw.Resumes())
	}
	if cw.Restarts() != 0 || cw.Resumes() != 1 {
		t.Fatalf("checkpointed worker: restarts=%d resumes=%d, want 0/1", cw.Restarts(), cw.Resumes())
	}

	pm, cm := po.Metrics().Snapshot(), co.Metrics().Snapshot()
	if pm.ReplayedEnts < int64(h) {
		t.Fatalf("plain run replayed %d entries, want >= %d (the whole history)", pm.ReplayedEnts, h)
	}
	if cm.ReplayedEnts >= 64 {
		t.Fatalf("checkpointed run replayed %d entries, want a short suffix", cm.ReplayedEnts)
	}
	if cm.Checkpoints != int64(h/16) {
		t.Fatalf("checkpoints taken = %d, want %d", cm.Checkpoints, h/16)
	}
	if cm.CheckpointBytes == 0 {
		t.Fatal("checkpoint bytes not accounted")
	}

	// Satellite: both counters surface in the operator views.
	if dump := co.Dump(); !strings.Contains(dump, "checkpoints: taken=") {
		t.Fatalf("observer dump missing checkpoint line:\n%s", dump)
	}
	if dbg := rt.DebugString(); !strings.Contains(dbg, "resumes=1") {
		t.Fatalf("DebugString missing resume count:\n%s", dbg)
	}
}

// TestCheckpointTruncatedWithLog pins the truncation rule: a checkpoint
// recorded inside the speculation that gets denied is discarded with the
// log suffix, so the replayed pass starts from scratch — Restored must
// not observe the stale snapshot.
func TestCheckpointTruncatedWithLog(t *testing.T) {
	rt, buf := newRT(t)
	aidCh := make(chan AID, 1)
	var sawRestore atomic.Bool
	var worker *Proc
	var captured sync.Once

	spawn(t, rt, "worker", func(p *Proc) error {
		captured.Do(func() { worker = p })
		if _, ok := p.Restored(); ok {
			sawRestore.Store(true)
		}
		x := p.NewAID()
		if p.Guess(x) {
			aidCh <- x // only once the guess is open, so the deny has something to roll back
			p.Checkpoint("inside the doomed speculation")
			p.Printf("opt\n")
			_, err := p.Recv() // parks until the deny unwinds it
			if errors.Is(err, ErrShutdown) {
				return nil
			}
			return err
		}
		p.Printf("pess\n")
		return nil
	})
	spawn(t, rt, "denier", func(p *Proc) error {
		return p.Deny(<-aidCh)
	})
	rt.Quiesce()
	rt.Shutdown()
	waitClean(t, rt)

	if got := buf.String(); got != "pess\n" {
		t.Fatalf("output %q, want %q", got, "pess\n")
	}
	if sawRestore.Load() {
		t.Fatal("Restored returned a checkpoint that the rollback should have truncated")
	}
	if worker.Restarts() != 1 || worker.Resumes() != 0 {
		t.Fatalf("restarts=%d resumes=%d, want 1/0 (full replay, no surviving checkpoint)",
			worker.Restarts(), worker.Resumes())
	}
}

// TestCrashRestoresFromCheckpoint drives injected crashes through a
// checkpointing body: recovery must restore from the newest checkpoint
// (counted as a Resume) and the committed output must stay byte-identical
// to the fault-free run.
func TestCrashRestoresFromCheckpoint(t *testing.T) {
	const h = 60
	run := func(plan *fault.Plan) (string, *obs.Observer) {
		var opts []Option
		o := obs.New(obs.WithEventCapacity(0))
		opts = append(opts, WithObserver(o))
		if plan != nil {
			opts = append(opts, WithFaults(plan))
		}
		rt, buf := newRT(t, opts...)
		spawn(t, rt, "grinder", func(p *Proc) error {
			type st struct{ I, Sum int }
			var s st
			if v, ok := p.Restored(); ok {
				s = v.(st)
			}
			for s.I < h {
				s.Sum += int(p.Rand() % 97)
				s.I++
				if s.I%8 == 0 {
					p.Checkpoint(s)
				}
			}
			p.Printf("sum=%d\n", s.Sum)
			return nil
		})
		rt.Quiesce()
		rt.Shutdown()
		waitClean(t, rt)
		return buf.String(), o
	}

	want, _ := run(nil)
	if !strings.HasPrefix(want, "sum=") {
		t.Fatalf("fault-free output %q", want)
	}
	crashes, resumes := int64(0), int64(0)
	for seed := int64(0); seed < 12; seed++ {
		plan := fault.New(fault.Config{Seed: seed, Crash: 0.15, MaxCrashes: 3})
		got, o := run(plan)
		if got != want {
			t.Fatalf("seed %d: output diverged under crashes\nwant: %sgot:  %s\ninjected: %v",
				seed, want, got, plan.Injections())
		}
		crashes += plan.Counts()[fault.Crash]
		resumes += o.Metrics().Snapshot().Resumes
	}
	if crashes == 0 {
		t.Fatal("no seed injected a crash; raise Crash")
	}
	if resumes == 0 {
		t.Fatal("crashes never restored from a checkpoint; the restore path went unexercised")
	}
	t.Logf("%d crashes, %d checkpoint resumes, output stable", crashes, resumes)
}

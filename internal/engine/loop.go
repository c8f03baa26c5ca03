package engine

import "errors"

// ErrStopLoop stops a Loop process cleanly when returned by its step
// function.
var ErrStopLoop = errors.New("hope: stop loop")

// Loop spawns a long-running process with bounded replay-log memory — the
// engine-level answer to the paper's §7 future work on cheaper
// checkpointing. A plain Spawn body accumulates its replay log until it
// finishes (rollback re-executes the body from the top); Loop instead
// structures the body as repeated steps over explicit state and,
// whenever the process is definite at a step boundary, replaces the
// settled log with one checkpoint of the state. Rollback restores it and
// replays only what followed.
//
// Contract: init produces the initial state; clone must deep-copy it
// (checkpoints are replayed against, so shared mutable structure would
// leak rolled-back writes); step mutates the state in place and follows
// the usual piecewise-determinism rules. Return ErrStopLoop from step to
// end the process cleanly; Recv returning ErrShutdown ends it too.
//
// When the runtime is configured with WithCheckpointEvery, Loop also
// checkpoints the state at step boundaries while speculation keeps the
// log from compacting, so a deep rollback or crash restores a recent
// step instead of replaying the whole speculation window.
func Loop[S any](rt *Runtime, name string, init func() S, clone func(S) S, step func(*Proc, S) error) error {
	initial := init()
	return rt.Spawn(name, func(p *Proc) error {
		// Each body attempt resumes from the newest checkpoint surviving
		// the rollback cut — the settled state at log[0] or a cadence
		// checkpoint — else from the initial state; the replay log covers
		// exactly the steps since the restore point.
		var s S
		if st, ok := p.Restored(); ok {
			s = clone(st.(S))
		} else {
			s = clone(initial)
		}

		for {
			if err := step(p, s); err != nil {
				if errors.Is(err, ErrStopLoop) || errors.Is(err, ErrShutdown) {
					return nil
				}
				return err
			}
			// Settled boundary: the state replaces the log. Otherwise the
			// log is growing under live speculation — checkpoint on the
			// configured cadence so recovery stays bounded by the cadence,
			// not the window length.
			if p.compactable() {
				p.compact(clone(s))
			} else if p.checkpointDue() {
				p.Checkpoint(clone(s))
			}
		}
	})
}

// LogLen reports the current replay-log length. Call it only from the
// process's own body (the log is goroutine-local); Loop keeps it bounded
// by the speculation window since the last settled boundary, plus the
// checkpoint that boundary left at log[0].
func (p *Proc) LogLen() int { return p.log.len() }

package engine

import (
	"errors"
	"sync"
)

// ErrStopLoop stops a Loop process cleanly when returned by its step
// function.
var ErrStopLoop = errors.New("hope: stop loop")

// Loop spawns a long-running process with bounded replay-log memory — the
// engine-level answer to the paper's §7 future work on cheaper
// checkpointing. A plain Spawn body accumulates its replay log forever
// (rollback re-executes the body from the top); Loop instead structures
// the body as repeated steps over explicit state and, whenever the
// process is definite at a step boundary, snapshots the state and
// discards the settled log prefix. Rollback replays only since the last
// snapshot.
//
// Contract: init produces the initial state; clone must deep-copy it
// (snapshots and checkpoints are replayed against, so shared mutable
// structure would leak rolled-back writes); step mutates the state in
// place and follows the usual piecewise-determinism rules. Return
// ErrStopLoop from step to end the process cleanly; Recv returning
// ErrShutdown ends it too.
//
// When the runtime is configured with WithCheckpointEvery, Loop also
// checkpoints the state at step boundaries while speculation keeps the
// log from compacting, so a deep rollback or crash restores a recent
// step instead of replaying the whole speculation window.
func Loop[S any](rt *Runtime, name string, init func() S, clone func(S) S, step func(*Proc, S) error) error {
	var mu sync.Mutex
	snapshot := init()

	return rt.Spawn(name, func(p *Proc) error {
		// Each body attempt resumes from a checkpoint when one survived
		// the rollback cut, else from the latest settled snapshot; the
		// replay log covers exactly the steps since the restore point.
		var s S
		if st, ok := p.Restored(); ok {
			s = clone(st.(S))
		} else {
			mu.Lock()
			s = clone(snapshot)
			mu.Unlock()
		}

		for {
			if err := step(p, s); err != nil {
				if errors.Is(err, ErrStopLoop) || errors.Is(err, ErrShutdown) {
					return nil
				}
				return err
			}
			// Settled boundary: persist the state and drop the log.
			// Otherwise the log is growing under live speculation —
			// checkpoint on the configured cadence so recovery stays
			// bounded by the cadence, not the window length.
			if p.compactable() {
				snap := clone(s)
				mu.Lock()
				snapshot = snap
				mu.Unlock()
				p.compact()
			} else if p.checkpointDue() {
				p.Checkpoint(clone(s))
			}
		}
	})
}

// LogLen reports the current replay-log length. Call it only from the
// process's own body (the log is goroutine-local); Loop keeps it bounded
// by the speculation window since the last settled boundary.
func (p *Proc) LogLen() int { return p.log.len() }

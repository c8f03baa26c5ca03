//go:build go1.24

package engine

import (
	"errors"
	"runtime"
	"testing"
	"weak"
)

// bigState is a checkpoint state large enough to notice: 1 KB.
type bigState = *[1024]byte

// TestRollbackReleasesDroppedCheckpoint checks that a rollback's cut
// drops what the cut entries referenced, not only their count. The body
// guesses X, checkpoints a state held only through a weak pointer and
// denies X; the re-executed branch blocks in Recv, so no later push
// overwrites the dropped slots. Once the runtime is quiet and a
// collection has run, the state must be gone.
func TestRollbackReleasesDroppedCheckpoint(t *testing.T) {
	rt, _ := newRT(t)
	var state weak.Pointer[[1024]byte]
	spawn(t, rt, "p", func(p *Proc) error {
		if _, ok := p.Restored(); ok {
			return errors.New("restored a checkpoint the rollback cut")
		}
		x := p.NewAID()
		if p.Guess(x) {
			st := new([1024]byte)
			state = weak.Make(st)
			p.Checkpoint(st)
			return p.Deny(x)
		}
		_, err := p.Recv()
		return err
	})
	rt.Quiesce()
	runtime.GC()
	if state.Value() != nil {
		t.Fatal("the checkpoint state cut by the rollback is still reachable")
	}
}

// TestCompactionReleasesDroppedCheckpoint is the same check for Loop's
// compaction: the first step checkpoints a state held only through a
// weak pointer, the step boundary compacts the log (the process is
// definite) and the second step blocks in Recv.
func TestCompactionReleasesDroppedCheckpoint(t *testing.T) {
	rt, _ := newRT(t)
	var state weak.Pointer[[1024]byte]
	err := Loop(rt, "acc",
		func() bigState { return new([1024]byte) },
		func(s bigState) bigState { c := *s; return &c },
		func(p *Proc, s bigState) error {
			if s[0] == 0 {
				s[0] = 1
				st := new([1024]byte)
				state = weak.Make(st)
				p.Checkpoint(st)
				return nil
			}
			_, err := p.Recv()
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	rt.Quiesce()
	runtime.GC()
	if state.Value() != nil {
		t.Fatal("the checkpoint state dropped by compaction is still reachable")
	}
}

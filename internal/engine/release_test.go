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

// TestRollbackReleasesDroppedMessage checks that a rollback's cut drops
// the message a cut receive consumed from the log's message store, not
// only the entry that pointed at it. The sender guesses X and sends a
// payload held only through a weak pointer; the receiver consumes it
// (an implicit guess of X) and the sender denies X. The receiver rolls
// back to that receive: the message goes back to its queue an orphan,
// the re-executed receive drops it and blocks. Once the runtime is quiet
// and a collection has run, the payload must be gone.
func TestRollbackReleasesDroppedMessage(t *testing.T) {
	rt, _ := newRT(t)
	var payload weak.Pointer[[1024]byte]
	consumed := make(chan struct{})
	spawn(t, rt, "rx", func(p *Proc) error {
		if _, err := p.Recv(); err != nil {
			return err
		}
		close(consumed) // only the first attempt gets here
		_, err := p.Recv()
		return err
	})
	spawn(t, rt, "tx", func(p *Proc) error {
		x := p.NewAID()
		if p.Guess(x) {
			pl := new([1024]byte)
			payload = weak.Make(pl)
			if err := p.Send("rx", pl); err != nil {
				return err
			}
			<-consumed
			return p.Deny(x)
		}
		return nil
	})
	rt.Quiesce()
	if rt.procs["rx"].Restarts() == 0 {
		t.Fatal("rx was never rolled back: the test did not exercise the cut")
	}
	runtime.GC()
	if payload.Value() != nil {
		t.Fatal("the payload of the message cut by the rollback is still reachable")
	}
}

// TestCompactionReleasesDroppedMessage is the same check for Loop's
// compaction: the first step receives a settled message whose payload
// is held only through a weak pointer, the step boundary compacts the
// log (the process is definite) and the second step blocks in Recv.
func TestCompactionReleasesDroppedMessage(t *testing.T) {
	rt, _ := newRT(t)
	var payload weak.Pointer[[1024]byte]
	err := Loop(rt, "acc",
		func() *int { return new(int) },
		func(s *int) *int { c := *s; return &c },
		func(p *Proc, s *int) error {
			*s++
			_, err := p.Recv()
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	spawn(t, rt, "tx", func(p *Proc) error {
		pl := new([1024]byte)
		payload = weak.Make(pl)
		return p.Send("acc", pl)
	})
	rt.Quiesce()
	runtime.GC()
	if payload.Value() != nil {
		t.Fatal("the payload of the message dropped by compaction is still reachable")
	}
}

// TestFinishedProcessReleasesLog checks that a process that is done
// frees its replay log, and with it the messages its receives consumed,
// without waiting for Shutdown. The receiver consumes a settled payload
// held only through a weak pointer and returns definite; once both
// processes are done and a collection has run, the payload must be gone
// while the runtime is still up.
func TestFinishedProcessReleasesLog(t *testing.T) {
	rt, _ := newRT(t)
	var payload weak.Pointer[[1024]byte]
	spawn(t, rt, "rx", func(p *Proc) error {
		_, err := p.Recv()
		return err
	})
	spawn(t, rt, "tx", func(p *Proc) error {
		pl := new([1024]byte)
		payload = weak.Make(pl)
		return p.Send("rx", pl)
	})
	waitClean(t, rt)
	runtime.GC()
	if payload.Value() != nil {
		t.Fatalf("the payload a finished process consumed is still reachable\n%s", rt.DebugString())
	}
}

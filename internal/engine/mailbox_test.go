package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"hope/internal/ids"
	"hope/internal/obs"
	"hope/internal/tracker"
)

// vacant reports whether a mailbox slot holds nothing: no payload, tags
// or sender a vacated slot could keep alive.
func vacant(m *rmsg) bool {
	return m.seq == 0 && m.from == "" && m.payload == nil && m.tags == nil && !m.wire && m.cls == (tracker.TagClass{})
}

// checkVacated fails unless every slot of q's blocks outside the live
// messages, and every slot of its spare, is vacant.
func checkVacated(t *testing.T, q *mailbox, op string) {
	t.Helper()
	s := 0 // the slot's position over all blocks; live from head to head+n
	for b, blk := range q.blocks {
		for o := range blk {
			if m := &blk[o]; (s < q.head || s >= q.head+q.n) && !vacant(m) {
				t.Fatalf("after %s: empty slot %d of block %d still holds seq %d, payload %v", op, o, b, m.seq, m.payload)
			}
			s++
		}
	}
	for o := range q.spare {
		if m := &q.spare[o]; !vacant(m) {
			t.Fatalf("after %s: slot %d of the spare still holds seq %d, payload %v", op, o, m.seq, m.payload)
		}
	}
}

// queued builds the value a test enqueues: seq n, a payload and a tag.
func queued(n uint64) rmsg {
	return rmsg{message: message{seq: n, from: "src", payload: new(int), tags: []ids.AID{ids.AID(n)}}}
}

// TestMailboxMatchesSliceModel drives the mailbox and a plain slice with
// the same random operations and compares them after every one.
func TestMailboxMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q mailbox
	var model []rmsg
	next := uint64(0)
	fresh := func() rmsg { next++; return queued(next) }
	check := func(op string) {
		t.Helper()
		if q.len() != len(model) {
			t.Fatalf("after %s: len %d, model %d", op, q.len(), len(model))
		}
		for i := 0; i < q.len(); i++ {
			if m := q.at(i); m.seq != model[i].seq || m.payload != model[i].payload {
				t.Fatalf("after %s: slot %d holds seq %d, model %d", op, i, m.seq, model[i].seq)
			}
		}
		checkVacated(t, &q, op)
	}
	for step := 0; step < 10_000; step++ {
		// Alternate growing and draining phases so the queue both builds a
		// backlog of several blocks and empties many times over.
		grow := 55
		if (step/500)%2 == 1 {
			grow = 25
		}
		switch r := rng.Intn(100); {
		case r < grow:
			m := fresh()
			q.pushBack(&m)
			model = append(model, m)
			check("pushBack")
		case r < grow+10:
			ms := make([]rmsg, rng.Intn(4))
			for i := range ms {
				ms[i] = fresh()
			}
			q.pushFront(ms...)
			model = append(ms, model...)
			check(fmt.Sprintf("pushFront(%d)", len(ms)))
		case len(model) > 0:
			i := 0 // receives mostly take the head
			if rng.Intn(4) == 0 {
				i = rng.Intn(len(model))
			}
			if got := q.removeAt(i); got.seq != model[i].seq {
				t.Fatalf("removeAt(%d) = seq %d, model %d", i, got.seq, model[i].seq)
			}
			model = append(model[:i:i], model[i+1:]...)
			check(fmt.Sprintf("removeAt(%d)", i))
		}
	}
}

// TestMailboxVacatedSlotsHoldNoPayload: the ways a slot is vacated —
// removeAt at the head and past it, a block the head leaves (dropped, or
// kept as the spare) and a drain that keeps its block — each leave the
// slot zeroed, so a received message's payload is held only by the
// receiver's log, not by its old queue slot.
func TestMailboxVacatedSlotsHoldNoPayload(t *testing.T) {
	var q mailbox
	total := mailboxFirst + mailboxBlock + 2 // three blocks
	for n := 1; n <= total; n++ {
		m := queued(uint64(n))
		q.pushBack(&m)
	}
	if len(q.blocks) != 3 {
		t.Fatalf("%d messages in %d blocks, want 3", total, len(q.blocks))
	}
	q.removeAt(0) // the head
	q.removeAt(1) // past it: seq 2 shifts up over the vacated slot
	checkVacated(t, &q, "removeAt")
	for q.len() > total-mailboxFirst {
		q.removeAt(0)
	}
	if len(q.blocks) != 2 || q.spare != nil {
		t.Fatalf("after the first block: %d blocks, spare %v; want it dropped, not kept", len(q.blocks), q.spare != nil)
	}
	checkVacated(t, &q, "first block left")
	for q.len() > 2 {
		q.removeAt(0)
	}
	if len(q.blocks) != 1 || len(q.spare) != mailboxBlock {
		t.Fatalf("after the second block: %d blocks, spare of %d; want one block and a full spare", len(q.blocks), len(q.spare))
	}
	checkVacated(t, &q, "block kept as the spare")
	for q.len() > 0 {
		q.removeAt(0)
	}
	if len(q.blocks) != 1 || q.head != 0 || q.spare != nil {
		t.Fatalf("drained: %d blocks, head %d, spare %v; want its one block at head 0 and no spare", len(q.blocks), q.head, q.spare != nil)
	}
	checkVacated(t, &q, "drain")
}

// TestMailboxReleasesBacklogArray: a drained mailbox keeps one block for
// reuse and drops the others a backlog grew, and the spare.
func TestMailboxReleasesBacklogArray(t *testing.T) {
	var q mailbox
	var m rmsg
	for i := 0; i < mailboxFirst; i++ {
		q.pushBack(&m)
	}
	for q.len() > 0 {
		q.removeAt(0)
	}
	if len(q.blocks) != 1 || q.head != 0 {
		t.Fatalf("small drained mailbox: %d blocks, head %d; want its block kept at head 0", len(q.blocks), q.head)
	}
	allocs := testing.AllocsPerRun(100, func() {
		q.pushBack(&m)
		q.removeAt(0)
	})
	if allocs > 0 {
		t.Fatalf("push/pop on a drained mailbox allocates %.0f times, want none: the message is held by value", allocs)
	}
	const backlog = 10 * mailboxBlock
	for i := 0; i < backlog; i++ {
		q.pushBack(&m)
	}
	for q.len() > 0 {
		q.removeAt(0)
	}
	if len(q.blocks) != 1 || len(q.blocks[0]) != mailboxBlock || q.spare != nil {
		t.Fatalf("drained backlog of %d left %d blocks and a spare of %d, want one block and none", backlog, len(q.blocks), len(q.spare))
	}
}

// TestMailboxRollbackRequeuesInOrder: a rollback returns the receives of
// the discarded suffix to the front of the queue in their original order,
// ahead of what arrived since.
func TestMailboxRollbackRequeuesInOrder(t *testing.T) {
	rt, _ := newRT(t)
	aidCh := make(chan AID, 1)
	consumed := make(chan struct{})
	signalled := false
	var attempts [][]int

	spawn(t, rt, "sink", func(p *Proc) error {
		x := p.NewAID()
		select {
		case aidCh <- x:
		default:
		}
		p.Guess(x)
		var got []int
		for i := 0; i < 5; i++ {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			got = append(got, m.Payload.(int))
			if i == 2 && !signalled {
				signalled = true
				close(consumed) // 1 2 3 are in the log, 4 5 not yet sent
			}
		}
		attempts = append(attempts, got)
		return nil
	})
	spawn(t, rt, "src", func(p *Proc) error {
		for i := 1; i <= 3; i++ {
			if err := p.Send("sink", i); err != nil {
				return err
			}
		}
		<-consumed
		// 4 and 5 queue behind nothing; the deny then requeues 1 2 3
		// ahead of them.
		for i := 4; i <= 5; i++ {
			if err := p.Send("sink", i); err != nil {
				return err
			}
		}
		return p.Deny(<-aidCh)
	})
	waitClean(t, rt)
	if len(attempts) == 0 {
		t.Fatal("sink never completed")
	}
	if got := fmt.Sprint(attempts[len(attempts)-1]); got != "[1 2 3 4 5]" {
		t.Fatalf("receive order after rollback = %s, want [1 2 3 4 5]", got)
	}
	if rt.procs["sink"].Restarts() == 0 {
		t.Fatal("sink was never rolled back: the test did not exercise the requeue")
	}
}

// TestRecvSettledDropsOrphanAheadOfSettled: an orphan queued ahead of a
// settled message is discarded on the way to it, not left behind.
func TestRecvSettledDropsOrphanAheadOfSettled(t *testing.T) {
	rt, _ := newRT(t)
	aidCh := make(chan AID, 1)
	specSent := make(chan struct{})
	resent := make(chan struct{})
	var got []int

	spawn(t, rt, "sink", func(p *Proc) error {
		<-resent // the queue is now [100 (orphan), 7, 5]
		for i := 0; i < 2; i++ {
			m, err := p.RecvSettled()
			if err != nil {
				return err
			}
			got = append(got, m.Payload.(int))
		}
		return nil
	})
	spawn(t, rt, "spec", func(p *Proc) error {
		x := p.NewAID()
		select {
		case aidCh <- x:
		default:
		}
		if p.Guess(x) {
			if err := p.Send("sink", 100); err != nil {
				return err
			}
			close(specSent)
			return nil
		}
		defer close(resent)
		return p.Send("sink", 5)
	})
	spawn(t, rt, "def", func(p *Proc) error {
		<-specSent
		if err := p.Send("sink", 7); err != nil {
			return err
		}
		return p.Deny(<-aidCh) // 100 becomes an orphan; spec re-sends 5
	})
	waitClean(t, rt)
	if fmt.Sprint(got) != "[7 5]" {
		t.Fatalf("settled deliveries = %v, want [7 5]", got)
	}
	sink := rt.procs["sink"]
	sink.mu.Lock()
	left := sink.queue.len()
	sink.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d message(s) left queued, want the orphan dropped", left)
	}
}

// TestRecvSettledCostFlatInDepth is the shape the mailbox exists for: a
// pessimistic receive costs the same however deep the backlog behind the
// message it takes. Before, every pop copied the whole queue (≈ 4·N bytes
// per receive averaged over a drain, 16 KB at N = 4096) and every scan
// classified all N messages.
func TestRecvSettledCostFlatInDepth(t *testing.T) {
	perRecv := func(n int) (bytes, classified float64) {
		o := obs.New(obs.WithEventCapacity(0))
		rt, _ := newRT(t, WithObserver(o))
		queued := make(chan struct{})
		start := make(chan struct{})
		drained := make(chan struct{})
		var seen atomic.Int64

		// A Loop process compacts its replay log at every settled step,
		// so the log's growth does not blur the per-receive figure.
		err := Loop(rt, "sink",
			func() struct{} { return struct{}{} },
			func(s struct{}) struct{} { return s },
			func(p *Proc, _ struct{}) error {
				<-start
				if _, err := p.RecvSettled(); err != nil {
					return err
				}
				if seen.Add(1) == int64(n) {
					close(drained)
					return ErrStopLoop
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		spawn(t, rt, "src", func(p *Proc) error {
			for i := 0; i < n; i++ {
				if err := p.Send("sink", i); err != nil { // definite: settled on arrival
					return err
				}
			}
			close(queued)
			return nil
		})
		<-queued
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		scans := o.Metrics().Snapshot()
		close(start)
		<-drained
		runtime.ReadMemStats(&after)
		m := o.Metrics().Snapshot()
		waitClean(t, rt)
		examined := (m.ClassifyHits + m.ClassifyMisses) - (scans.ClassifyHits + scans.ClassifyMisses)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n), float64(examined) / float64(n)
	}
	shallowB, shallowC := perRecv(256)
	deepB, deepC := perRecv(4096)
	t.Logf("N=256: %.0f B, %.2f classified per receive; N=4096: %.0f B, %.2f classified per receive",
		shallowB, shallowC, deepB, deepC)
	for _, c := range []struct {
		n                 int
		bytes, classified float64
	}{{256, shallowB, shallowC}, {4096, deepB, deepC}} {
		if c.bytes > 1024 {
			t.Errorf("N=%d: %.0f B allocated per receive, want <= 1024", c.n, c.bytes)
		}
		if c.classified > 4 {
			t.Errorf("N=%d: %.2f messages classified per receive, want <= 4", c.n, c.classified)
		}
	}
	if deepB > 1.5*shallowB+64 {
		t.Errorf("allocation per receive grows with depth: %.0f B at N=4096 vs %.0f B at N=256", deepB, shallowB)
	}
}

// TestParkRaceLastRoundDenied: the body has returned and is parking when
// the deny of its last guess lands. The deny discards the live intervals
// and installs the rollback target in one step; a park that looked for
// the target first and for definiteness second could miss the target and
// exit "done" with the rollback never applied.
func TestParkRaceLastRoundDenied(t *testing.T) {
	rt, _ := newRT(t)
	const pairs = 16
	const rounds = 50
	var denials atomic.Int64

	for i := 0; i < pairs; i++ {
		gname := fmt.Sprintf("guess-%d", i)
		rname := fmt.Sprintf("resolve-%d", i)
		spawn(t, rt, rname, func(p *Proc) error {
			for r := 0; r < rounds; r++ {
				m, err := p.Recv()
				if err != nil {
					return err
				}
				x := m.Payload.(AID)
				if r == rounds-1 {
					err = p.Deny(x)
				} else {
					err = p.Affirm(x)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		spawn(t, rt, gname, func(p *Proc) error {
			for r := 0; r < rounds; r++ {
				x := p.NewAID()
				if err := p.Send(rname, x); err != nil {
					return err
				}
				if !p.Guess(x) {
					if r != rounds-1 {
						return errors.New("an affirmed round was denied")
					}
					p.Effect(func() { denials.Add(1) }, nil)
				}
			}
			return nil
		})
	}
	waitClean(t, rt)
	if got := denials.Load(); got != pairs {
		t.Fatalf("denials applied = %d, want %d\n%s", got, pairs, rt.DebugString())
	}
}

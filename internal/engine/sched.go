package engine

import (
	"container/heap"
	"sync"
	"time"
)

// delivery is one latency-delayed message delivery awaiting its due time.
type delivery struct {
	due time.Time
	key linkKey
	msg rmsg
	dst *Proc
}

// sched is one delivery scheduler: a goroutine draining a min-heap of
// pending deliveries ordered by due time. An early implementation
// spawned one goroutine (and one timer) per delayed message; at high
// fanout that is thousands of sleeping goroutines churning the runtime
// timer heap. Here the heap holds at most one entry per active link — the
// link's oldest pending delivery — and younger deliveries queue behind it
// in send order, which is exactly the per-link FIFO the replay log
// requires: a message never delivers before its link predecessor, even
// when its own latency timer fires first.
//
// The runtime runs one sched per shard, each owning the links of the
// senders that hash to it (Runtime.schedFor), so high-rate senders on
// different shards neither share a heap lock nor serialize behind one
// drain goroutine.
type sched struct {
	// idx is this scheduler's slot in the runtime's pool, for the
	// per-shard heap-depth gauge.
	idx int

	mu sync.Mutex
	// heads is the min-heap of link-oldest deliveries, keyed by due time
	// (ties broken by global send sequence, keeping drain order
	// deterministic).
	heads dheap
	// tails holds each active link's younger pending deliveries in send
	// order. A link is "active" (key present) iff its oldest delivery is
	// in heads.
	tails map[linkKey][]*delivery
	// kick wakes the scheduler goroutine when the earliest due time may
	// have moved, or on close.
	kick    chan struct{}
	running bool
	closed  bool
}

func (s *sched) init() {
	s.kick = make(chan struct{}, 1)
	s.tails = make(map[linkKey][]*delivery)
}

func (s *sched) kickNow() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// schedule enqueues d for delivery at d.due, starting the scheduler
// goroutine on first use.
func (s *sched) schedule(r *Runtime, d *delivery) {
	s.mu.Lock()
	if tail, active := s.tails[d.key]; active {
		// The link already has its oldest delivery in the heap; this one
		// waits its turn regardless of its own due time.
		s.tails[d.key] = append(tail, d)
		s.mu.Unlock()
		return
	}
	s.tails[d.key] = nil
	heap.Push(&s.heads, d)
	r.obs.SchedHeap(len(s.heads))
	r.obs.ShardHeap(s.idx, len(s.heads))
	newHead := s.heads[0] == d
	if !s.running {
		s.running = true
		go s.loop(r)
	}
	s.mu.Unlock()
	if newHead {
		s.kickNow()
	}
}

// close flushes the scheduler: pending deliveries are handed over
// immediately (their receivers are shut down) and the goroutine exits.
func (s *sched) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.kickNow()
}

// loop is the scheduler goroutine: deliver everything due, sleep until
// the next due time or a kick, repeat.
func (s *sched) loop(r *Runtime) {
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		s.mu.Lock()
		now := time.Now()
		var batch []*delivery
		for len(s.heads) > 0 && (s.closed || !s.heads[0].due.After(now)) {
			d := heap.Pop(&s.heads).(*delivery)
			batch = append(batch, d)
			// Promote the link's next delivery; if it is already due it
			// is popped by this same drain pass.
			if tail := s.tails[d.key]; len(tail) > 0 {
				s.tails[d.key] = tail[1:]
				heap.Push(&s.heads, tail[0])
			} else {
				delete(s.tails, d.key)
			}
		}
		hasNext := len(s.heads) > 0
		var wait time.Duration
		if hasNext {
			wait = s.heads[0].due.Sub(now)
		}
		closed := s.closed
		// Park only on a fully drained pass (empty batch too): exiting
		// with a batch still in hand would let a restarted loop deliver
		// younger messages concurrently, breaking link FIFO. A post-close
		// schedule restarts the goroutine.
		parked := closed && !hasNext && len(batch) == 0
		if parked {
			s.running = false
		}
		s.mu.Unlock()

		for _, d := range batch {
			r.deliverNow(d)
		}
		if parked {
			return
		}
		if closed {
			continue
		}
		if hasNext && wait <= 0 {
			continue
		}
		if hasNext {
			timer.Reset(wait)
			select {
			case <-s.kick:
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
			case <-timer.C:
			}
		} else {
			<-s.kick
		}
	}
}

// dheap orders deliveries by due time, then by global send sequence.
type dheap []*delivery

func (h dheap) Len() int { return len(h) }
func (h dheap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].msg.seq < h[j].msg.seq
}
func (h dheap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *dheap) Push(x any)   { *h = append(*h, x.(*delivery)) }
func (h *dheap) Pop() any {
	old := *h
	n := len(old)
	d := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return d
}

// Package netsim is a deterministic, virtual-time, event-driven network
// simulator. It reproduces the latency arithmetic of the paper's §3.1 —
// "a transcontinental 100Mb/s fibre optic channel is capable of sending
// 100 byte packets 100,000 times per second, but is only capable of
// sending that 100 byte packet 30 times per second if each transmission
// waits for a response" — as measured behaviour rather than back-of-the-
// envelope numbers (experiment E2 in EXPERIMENTS.md).
//
// Time is virtual: a run processes scheduled events in timestamp order
// instantly, so a simulated minute of transcontinental traffic costs
// microseconds of wall clock and is bit-for-bit reproducible.
package netsim

import (
	"container/heap"
	"time"
)

// Sim is one virtual-time event simulator. Not safe for concurrent use:
// the simulation executes in a single goroutine, as DES engines do.
type Sim struct {
	now    time.Duration
	events eventHeap
	seq    uint64
}

// NewSim creates a simulator at virtual time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Sim) At(t time.Duration, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.events, &event{at: t, seq: s.seq, fn: fn})
}

// Run processes events until none remain, returning the final virtual
// time.
func (s *Sim) Run() time.Duration {
	for len(s.events) > 0 {
		ev := heap.Pop(&s.events).(*event)
		s.now = ev.at
		ev.fn()
	}
	return s.now
}

type event struct {
	at  time.Duration
	seq uint64 // FIFO among simultaneous events
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Link models a unidirectional channel with propagation delay and finite
// bandwidth. Serialization occupies the link: back-to-back sends queue
// behind each other, so throughput is bandwidth-bound while request/reply
// traffic is latency-bound — exactly the §3.1 contrast.
type Link struct {
	sim *Sim
	// PropDelay is the one-way propagation delay (e.g. 15 ms for a
	// transcontinental hop).
	PropDelay time.Duration
	// BitsPerSecond is the serialization rate (0 = infinite bandwidth).
	BitsPerSecond int64

	busyUntil time.Duration
}

// NewLink attaches a link to sim.
func NewLink(sim *Sim, propDelay time.Duration, bitsPerSecond int64) *Link {
	return &Link{sim: sim, PropDelay: propDelay, BitsPerSecond: bitsPerSecond}
}

// Send transmits size bytes, invoking deliver at the virtual arrival
// time. It returns the scheduled arrival time.
func (l *Link) Send(size int, deliver func()) time.Duration {
	depart := l.sim.now
	if l.busyUntil > depart {
		depart = l.busyUntil
	}
	var tx time.Duration
	if l.BitsPerSecond > 0 {
		bits := int64(size) * 8
		tx = time.Duration(float64(bits) / float64(l.BitsPerSecond) * float64(time.Second))
	}
	l.busyUntil = depart + tx
	arrival := depart + tx + l.PropDelay
	if deliver != nil {
		l.sim.At(arrival, deliver)
	}
	return arrival
}

// Duplex couples two directed links into a bidirectional channel.
type Duplex struct {
	// AtoB carries traffic from endpoint A to endpoint B; BtoA the
	// reverse.
	AtoB, BtoA *Link
}

// NewDuplex builds a symmetric duplex channel.
func NewDuplex(sim *Sim, propDelay time.Duration, bitsPerSecond int64) *Duplex {
	return &Duplex{
		AtoB: NewLink(sim, propDelay, bitsPerSecond),
		BtoA: NewLink(sim, propDelay, bitsPerSecond),
	}
}

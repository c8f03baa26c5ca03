package experiments

import (
	"fmt"
	"io"
	"time"
)

// E2LatencyArithmetic regenerates §3.1's motivating numbers in closed
// form: a transcontinental 100 Mb/s channel moves 100-byte packets
// ~100,000×/s streamed but only ~30×/s when each waits for a reply ("the
// time required to send a photon from New York to Los Angeles and back
// again is 30 milliseconds"). The sweep varies RTT to show the
// synchronous rate is latency-bound while the streamed rate stays
// bandwidth-bound.
func E2LatencyArithmetic(w io.Writer) error {
	const (
		bw  = 100_000_000 // 100 Mb/s
		pkt = 100         // bytes
	)
	t := newTable("E2: §3.1 arithmetic — 100-byte packets on a 100 Mb/s channel",
		"RTT", "sync calls/s", "streamed pkts/s", "ratio")
	for _, rtt := range []time.Duration{
		100 * time.Microsecond,
		1 * time.Millisecond,
		10 * time.Millisecond,
		30 * time.Millisecond, // the paper's transcontinental case
		60 * time.Millisecond,
	} {
		l := link{prop: rtt / 2, bps: bw}
		sync := perSecond(200, l.syncRPC(pkt, 200))
		stream := perSecond(100_000, l.stream(pkt, 100_000))
		t.AddRow(rtt, fmt.Sprintf("%.1f", sync), fmt.Sprintf("%.0f", stream),
			fmt.Sprintf("%.0fx", stream/sync))
	}
	t.Render(w)

	// Pipelined request/response — the Call Streaming traffic pattern —
	// against synchronous, at the paper's transcontinental RTT.
	t2 := newTable("E2b: pipelined vs synchronous request/response at 30 ms RTT",
		"calls", "sync", "pipelined", "speedup")
	l := link{prop: 15 * time.Millisecond, bps: bw}
	for _, n := range []int{10, 100, 1000} {
		sync, piped := l.syncRPC(pkt, n), l.pipelinedRPC(pkt, n)
		t2.AddRow(n, sync.Round(time.Millisecond), piped.Round(time.Millisecond),
			speedup(sync, piped))
	}
	return render(w, t2)
}

// link is one direction of a duplex channel, each direction alike: a
// packet serializes in tx at bps, one at a time, then propagates for
// prop. The makespans follow in closed form: n synchronous calls (Figure
// 1's idle waiting) take n·2(t+p), n streamed packets n·t + p to the last
// delivery, and n pipelined calls (each reply sent as its request lands)
// (n+1)·t + 2p.
type link struct {
	prop time.Duration
	bps  int64
}

func (l link) tx(size int) time.Duration {
	return time.Duration(float64(8*size) / float64(l.bps) * float64(time.Second))
}
func (l link) syncRPC(size, n int) time.Duration { return time.Duration(n) * 2 * (l.tx(size) + l.prop) }
func (l link) stream(size, n int) time.Duration  { return time.Duration(n)*l.tx(size) + l.prop }
func (l link) pipelinedRPC(size, n int) time.Duration {
	return time.Duration(n+1)*l.tx(size) + 2*l.prop
}

func perSecond(n int, elapsed time.Duration) float64 { return float64(n) / elapsed.Seconds() }

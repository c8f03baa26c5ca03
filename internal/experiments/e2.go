package experiments

import (
	"fmt"
	"io"
	"time"

	"hope/internal/netsim"
)

// E2LatencyArithmetic regenerates §3.1's motivating numbers on the
// virtual-time network simulator: a transcontinental 100 Mb/s channel
// moves 100-byte packets ~100,000×/s streamed but only ~30×/s when each
// waits for a reply ("the time required to send a photon from New York to
// Los Angeles and back again is 30 milliseconds"). The sweep varies RTT
// to show the synchronous rate is latency-bound while the streamed rate
// stays bandwidth-bound.
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
		s1 := netsim.NewSim()
		d := netsim.NewDuplex(s1, rtt/2, bw)
		sync := netsim.SyncRPC(s1, d, pkt, pkt, 200)

		s2 := netsim.NewSim()
		l := netsim.NewLink(s2, rtt/2, bw)
		stream := netsim.Stream(s2, l, pkt, 100_000)

		t.AddRow(rtt, fmt.Sprintf("%.1f", sync.CallsPerSec),
			fmt.Sprintf("%.0f", stream.PacketsPerSec),
			fmt.Sprintf("%.0fx", stream.PacketsPerSec/sync.CallsPerSec))
	}
	t.Render(w)

	// Pipelined request/response — the Call Streaming traffic pattern —
	// against synchronous, at the paper's transcontinental RTT.
	t2 := newTable("E2b: pipelined vs synchronous request/response at 30 ms RTT",
		"calls", "sync", "pipelined", "speedup")
	for _, n := range []int{10, 100, 1000} {
		s1 := netsim.NewSim()
		d1 := netsim.NewDuplex(s1, 15*time.Millisecond, bw)
		sync := netsim.SyncRPC(s1, d1, pkt, pkt, n)
		s2 := netsim.NewSim()
		d2 := netsim.NewDuplex(s2, 15*time.Millisecond, bw)
		piped := netsim.PipelinedRPC(s2, d2, pkt, pkt, n)
		t2.AddRow(n, sync.Elapsed.Round(time.Millisecond), piped.Elapsed.Round(time.Millisecond),
			speedup(sync.Elapsed, piped.Elapsed))
	}
	return render(w, t2)
}

package netsim

import (
	"math"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.At(s.Now()+30*time.Millisecond, func() { order = append(order, 3) })
	s.At(s.Now()+10*time.Millisecond, func() { order = append(order, 1) })
	s.At(s.Now()+20*time.Millisecond, func() { order = append(order, 2) })
	end := s.Run()
	if end != 30*time.Millisecond {
		t.Fatalf("end = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(s.Now()+time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSim()
	var times []time.Duration
	s.At(s.Now()+time.Millisecond, func() {
		times = append(times, s.Now())
		s.At(s.Now()+2*time.Millisecond, func() {
			times = append(times, s.Now())
		})
	})
	s.Run()
	if len(times) != 2 || times[0] != time.Millisecond || times[1] != 3*time.Millisecond {
		t.Fatalf("times = %v", times)
	}
}

func TestLinkPropagationAndSerialization(t *testing.T) {
	s := NewSim()
	// 8 Mb/s → 1 byte per microsecond.
	l := NewLink(s, 10*time.Millisecond, 8_000_000)
	var arrivals []time.Duration
	l.Send(1000, func() { arrivals = append(arrivals, s.Now()) }) // tx = 1 ms
	l.Send(1000, func() { arrivals = append(arrivals, s.Now()) }) // queued behind
	s.Run()
	want0 := 11 * time.Millisecond // 1 ms tx + 10 ms prop
	want1 := 12 * time.Millisecond // waits for first serialization
	if arrivals[0] != want0 || arrivals[1] != want1 {
		t.Fatalf("arrivals = %v, want [%v %v]", arrivals, want0, want1)
	}
}

func TestInfiniteBandwidth(t *testing.T) {
	s := NewSim()
	l := NewLink(s, 5*time.Millisecond, 0)
	var arr time.Duration
	l.Send(1<<20, func() { arr = s.Now() })
	s.Run()
	if arr != 5*time.Millisecond {
		t.Fatalf("arrival = %v, want pure propagation", arr)
	}
}

// TestSection31Arithmetic regenerates the paper's §3.1 numbers: a
// transcontinental 100 Mb/s channel moves 100-byte packets at
// ~100,000/s streamed, but only ~30/s when each waits for a reply.
func TestSection31Arithmetic(t *testing.T) {
	const (
		oneWay = 15 * time.Millisecond // NY↔LA photon time / 2
		bw     = 100_000_000           // 100 Mb/s
		pkt    = 100
	)

	s1 := NewSim()
	d := NewDuplex(s1, oneWay, bw)
	sync := SyncRPC(s1, d, pkt, pkt, 100)
	// Each call ≈ RTT (30 ms) + 2 × 8 µs serialization ⇒ ~33 calls/s.
	if sync.CallsPerSec < 25 || sync.CallsPerSec > 40 {
		t.Fatalf("sync calls/sec = %.1f, want ≈30 (paper §3.1)", sync.CallsPerSec)
	}

	s2 := NewSim()
	l := NewLink(s2, oneWay, bw)
	stream := Stream(s2, l, pkt, 100_000)
	// 100 Mb/s ÷ 800 bits ⇒ 125,000 packets/s serialization-bound.
	if stream.PacketsPerSec < 100_000 || stream.PacketsPerSec > 130_000 {
		t.Fatalf("streamed packets/sec = %.0f, want ≈100,000+ (paper §3.1)", stream.PacketsPerSec)
	}

	// The optimism win: streamed beats synchronous by ~3–4 orders of
	// magnitude at transcontinental latency.
	ratio := stream.PacketsPerSec / sync.CallsPerSec
	if ratio < 1000 {
		t.Fatalf("stream/sync ratio = %.0f, want ≥1000", ratio)
	}
}

func TestPipelinedRPCBeatsSync(t *testing.T) {
	const oneWay = 5 * time.Millisecond
	mk := func() (*Sim, *Duplex) {
		s := NewSim()
		return s, NewDuplex(s, oneWay, 100_000_000)
	}
	s1, d1 := mk()
	sync := SyncRPC(s1, d1, 100, 100, 50)
	s2, d2 := mk()
	piped := PipelinedRPC(s2, d2, 100, 100, 50)
	if piped.Elapsed >= sync.Elapsed {
		t.Fatalf("pipelined %v not faster than sync %v", piped.Elapsed, sync.Elapsed)
	}
	// Pipelined: ~1 RTT + n×tx. Sync: ~n×RTT.
	if got := sync.Elapsed.Seconds() / piped.Elapsed.Seconds(); got < 10 {
		t.Fatalf("speedup = %.1fx, want ≥10x at this latency", got)
	}
}

func TestSyncRPCMeanCallTimeTracksRTT(t *testing.T) {
	for _, rtt := range []time.Duration{2 * time.Millisecond, 20 * time.Millisecond} {
		s := NewSim()
		d := NewDuplex(s, rtt/2, 0)
		res := SyncRPC(s, d, 100, 100, 10)
		if diff := math.Abs(float64(res.MeanCallTime - rtt)); diff > float64(rtt)/100 {
			t.Fatalf("rtt=%v mean=%v", rtt, res.MeanCallTime)
		}
	}
}

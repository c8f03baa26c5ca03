package tracker

import (
	"fmt"
	"sync/atomic"
	"testing"

	"hope/internal/ids"
)

// buildFanout builds a tracker with procs processes, each holding one
// open speculative interval over its own assumption, and returns one
// simulated receive queue per process: qlen messages, each tagged with
// the owning process's dependency set — the §7 high-fanout shape where
// every receiver rescans its queue on every wakeup.
func buildFanout(tb testing.TB, procs, qlen int) (*Tracker, [][]ids.AID) {
	tb.Helper()
	tr := New()
	var queues [][]ids.AID
	for i := 0; i < procs; i++ {
		p := tr.Register(noopHooks{})
		x := tr.NewAID()
		if _, err := tr.Guess(p, x, 0); err != nil {
			tb.Fatalf("guess: %v", err)
		}
		tags, err := tr.Tag(p)
		if err != nil {
			tb.Fatalf("tag: %v", err)
		}
		for j := 0; j < qlen; j++ {
			queues = append(queues, tags)
		}
	}
	return tr, queues
}

// BenchmarkQueueScanClassify measures the repeated queue-scan hot path:
// every iteration classifies every queued message once, as RecvSettled,
// hasWork, and DebugString do on each wakeup. "fresh" is the pre-cache
// path (a locked transitive walk per message); "cached" memoizes each
// message's verdict against the resolution epoch, so steady-state scans
// cost one atomic load per message.
func BenchmarkQueueScanClassify(b *testing.B) {
	for _, procs := range []int{1, 8, 64} {
		const qlen = 16
		b.Run(fmt.Sprintf("procs=%d/fresh", procs), func(b *testing.B) {
			tr, queues := buildFanout(b, procs, qlen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, tags := range queues {
					tr.Settled(tags)
				}
			}
		})
		b.Run(fmt.Sprintf("procs=%d/cached", procs), func(b *testing.B) {
			tr, queues := buildFanout(b, procs, qlen)
			caches := make([]TagClass, len(queues))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, tags := range queues {
					tr.ClassifyCached(tags, &caches[j])
				}
			}
		})
	}
}

// BenchmarkDeepSpecChain classifies a tag whose resolution threads a
// chain of speculative affirms of the given depth — the worst case for
// the transitive walk, and the case where the small inline seen-buffer
// spills to a map.
func BenchmarkDeepSpecChain(b *testing.B) {
	for _, depth := range []int{4, 32, 128} {
		build := func(tb testing.TB) (*Tracker, []ids.AID) {
			tb.Helper()
			tr := New()
			p := tr.Register(noopHooks{})
			xs := make([]ids.AID, depth+1)
			for i := range xs {
				xs[i] = tr.NewAID()
			}
			// guess x1, affirm x0 (spec: repl {x1}), guess x2, affirm x1, ...
			for i := 0; i < depth; i++ {
				if _, err := tr.Guess(p, xs[i+1], i); err != nil {
					tb.Fatalf("guess: %v", err)
				}
				if err := tr.Affirm(p, xs[i]); err != nil {
					tb.Fatalf("affirm: %v", err)
				}
			}
			return tr, []ids.AID{xs[0]}
		}
		b.Run(fmt.Sprintf("depth=%d/fresh", depth), func(b *testing.B) {
			tr, tags := build(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Settled(tags)
			}
		})
		b.Run(fmt.Sprintf("depth=%d/cached", depth), func(b *testing.B) {
			tr, tags := build(b)
			var c TagClass
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.ClassifyCached(tags, &c)
			}
		})
	}
}

// BenchmarkContendedMixedReadWrite runs concurrent classification
// (readers) against a resolution stream (writer): the read/write-lock
// split lets readers scale while only genuine resolutions invalidate
// their cached verdicts.
func BenchmarkContendedMixedReadWrite(b *testing.B) {
	tr, queues := buildFanout(b, 8, 16)
	writer := tr.Register(noopHooks{})
	stop := make(chan struct{})
	defer close(stop)
	var resolutions atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			// A definite affirm of a fresh assumption: bumps the epoch
			// without disturbing the fanout intervals.
			x := tr.NewAID()
			if err := tr.Affirm(writer, x); err != nil {
				b.Errorf("affirm: %v", err)
				return
			}
			resolutions.Add(1)
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		caches := make([]TagClass, len(queues))
		for pb.Next() {
			for j, tags := range queues {
				tr.ClassifyCached(tags, &caches[j])
			}
		}
	})
}

package experiments

import (
	"testing"
	"time"

	"hope/internal/ids"
	"hope/internal/tracker"
)

// Tracker classification scaling on the high-fanout queue-rescan
// workload: N processes each speculative on one assumption, each holding
// a queue of tagged messages, every queue rescanned repeatedly as
// RecvSettled/hasWork do. DESIGN.md has the coherence argument for the
// epoch cache ("Epoch-cache coherence") and for the shards ("Sharded
// tracker").

type nopHooks struct{}

func (nopHooks) NotifyRollback() {}

// speculativeQueues registers procs processes on tr, each speculative on
// one fresh assumption, and returns qlen copies of each one's tag set.
func speculativeQueues(tr *tracker.Tracker, procs, qlen int) [][]ids.AID {
	var queues [][]ids.AID
	for i := 0; i < procs; i++ {
		p := tr.Register(nopHooks{})
		if _, err := tr.Guess(p, tr.NewAID(), 0); err != nil {
			panic(err)
		}
		tags, err := tr.Tag(p)
		if err != nil {
			panic(err)
		}
		for j := 0; j < qlen; j++ {
			queues = append(queues, tags)
		}
	}
	return queues
}

// trackerScanRates returns classification ops/sec for the fresh path
// (the locked transitive walk per message) and the epoch-cached path
// (a memoized TagClass revalidated against the resolution epoch) over
// the same tracker state.
func trackerScanRates(procs, qlen int) (fresh, cached float64) {
	tr := tracker.New()
	queues := speculativeQueues(tr, procs, qlen)

	const minOps = 200_000
	measure := func(scan func()) float64 {
		ops := 0
		start := time.Now()
		for ops < minOps {
			scan()
			ops += len(queues)
		}
		return float64(ops) / time.Since(start).Seconds()
	}

	fresh = measure(func() {
		for _, tags := range queues {
			tr.Settled(tags)
		}
	})
	caches := make([]tracker.TagClass, len(queues))
	cached = measure(func() {
		for i, tags := range queues {
			tr.ClassifyCached(tags, &caches[i])
		}
	})
	return fresh, cached
}

// shardSweepRate measures cached-classification throughput on a tracker
// with the given shard count when one resolution (a definite affirm of a
// fresh assumption) lands between consecutive sweeps of 4-message
// queues. With one shard every resolution bumps the only epoch, so every
// sweep reclassifies every message under the lock; with N shards ~1/N of
// the cached verdicts go stale per sweep. The interleaving is
// deterministic, so the ratio is stable across core counts.
func shardSweepRate(procs, shards int) float64 {
	tr := tracker.New(tracker.WithShards(shards))
	queues := speculativeQueues(tr, procs, 4)
	writer := tr.Register(nopHooks{})

	caches := make([]tracker.TagClass, len(queues))
	sweep := func() {
		for i, tags := range queues {
			tr.ClassifyCached(tags, &caches[i])
		}
	}
	sweep() // warm the caches and the tracker's maps before timing

	// Keep a floor of several sweeps so a GC pause averages out.
	const minOps = 400_000
	sweeps := max(minOps/len(queues)+1, 8)
	start := time.Now()
	for s := 0; s < sweeps; s++ {
		if err := tr.Affirm(writer, tr.NewAID()); err != nil {
			panic(err)
		}
		sweep()
	}
	return float64(sweeps*len(queues)) / time.Since(start).Seconds()
}

// bestOf3 returns the largest of three measurements of a rate: on a
// shared machine interference only ever lowers a throughput, so the
// maximum is the least-disturbed run.
func bestOf3(rate func() float64) float64 {
	best := 0.0
	for try := 0; try < 3; try++ {
		if r := rate(); r > best {
			best = r
		}
	}
	return best
}

// TestE11ShapeEpochCacheSpeedup: revalidating a memoized verdict
// against the resolution epoch must stay well ahead of the locked
// transitive walk (7–11x over 10 runs at 64 procs; a bypassed cache is
// 1x).
func TestE11ShapeEpochCacheSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock shape assertion: skipped under the race detector")
	}
	ratio := bestOf3(func() float64 {
		fresh, cached := trackerScanRates(64, 16)
		return cached / fresh
	})
	if ratio < 3.5 {
		t.Fatalf("epoch-cached vs fresh classification at 64 procs: %.1fx, want ≥ 3.5x", ratio)
	}
	t.Logf("epoch-cached/fresh = %.1fx", ratio)
}

// TestE11bShapeShardScaling: with one resolution per sweep, 64 shards
// leave ~63/64 of the cached verdicts valid where one shard
// invalidates them all (6–13x over 10 runs at 10k procs; 1x if
// sharding is off).
func TestE11bShapeShardScaling(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock shape assertion: skipped under the race detector")
	}
	rate := func(shards int) float64 {
		return bestOf3(func() float64 { return shardSweepRate(10_000, shards) })
	}
	one, many := rate(1), rate(64)
	if many/one < 3.3 {
		t.Fatalf("64 shards %.1f Mops/s vs 1 shard %.1f Mops/s at 10k procs: %.1fx, want ≥ 3.3x",
			many/1e6, one/1e6, many/one)
	}
	t.Logf("64 shards/1 shard = %.1fx", many/one)
}

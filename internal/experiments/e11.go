package experiments

import (
	"fmt"
	"io"
	"time"

	"hope/internal/ids"
	"hope/internal/tracker"
)

// E11TrackerScaling measures dependency-classification throughput on the
// high-fanout queue-rescan workload: N processes each speculative on one
// assumption, each holding a queue of tagged messages, every queue
// rescanned repeatedly as RecvSettled/hasWork do. "fresh" re-runs the
// locked transitive walk per message (the pre-epoch-cache behavior);
// "cached" revalidates a memoized TagClass verdict against the resolution
// epoch — the tentpole optimization whose coherence argument is in
// DESIGN.md.
func E11TrackerScaling(w io.Writer) error {
	const qlen = 16
	t := newTable("E11: tracker classification scaling, queue rescans (16 msgs/proc)",
		"procs", "fresh Mops/s", "epoch-cached Mops/s", "speedup")
	for _, procs := range []int{1, 8, 64} {
		fresh, cached := trackerScanRates(procs, qlen)
		t.AddRow(procs, fmt.Sprintf("%.2f", fresh/1e6), fmt.Sprintf("%.2f", cached/1e6),
			fmt.Sprintf("%.1fx", cached/fresh))
	}
	if err := render(w, t); err != nil {
		return err
	}
	return e11ShardAblation(w)
}

// e11ShardAblation is the sharded-tracker ablation: the queue-rescan
// loop of the first table, but with one resolution (a definite affirm of
// a fresh assumption) landing between consecutive sweeps — the
// steady-state shape of a live system where verdicts keep arriving while
// receivers rescan. With one shard, every resolution bumps the only
// epoch, so every sweep reclassifies every message from scratch under
// the lock; with N shards a resolution moves only its home shard's
// epoch, so ~1/N of the cached verdicts go stale per sweep and the rest
// revalidate with two atomic loads. The interleaving is deterministic
// (no background goroutine racing the scheduler), so the figures are
// stable across core counts; multicore lock-parallelism is measured
// separately by BenchmarkContendedClassifyShards. The imbalance column
// is max/mean assumptions per shard (1.00 = perfectly even);
// escalations counts settle footprints that crossed out of their home
// shards (zero here: single-assumption resolutions stay home).
func e11ShardAblation(w io.Writer) error {
	t := newTable("E11b: queue rescans with one resolution per sweep (4 msgs/proc)",
		"procs", "shards", "cached Mops/s", "vs 1 shard", "escalations", "imbalance")
	for _, procs := range []int{1_000, 10_000, 100_000} {
		base := 0.0
		for _, shards := range []int{1, 4, 16, 64} {
			rate, esc, imb := shardSweepRate(procs, shards)
			if shards == 1 {
				base = rate
			}
			t.AddRow(procs, shards, fmt.Sprintf("%.2f", rate/1e6),
				fmt.Sprintf("%.1fx", rate/base), esc, fmt.Sprintf("%.2fx", imb))
		}
	}
	return render(w, t)
}

// shardSweepRate measures cached-classification throughput on a tracker
// with the given shard count when one resolution lands between queue
// sweeps, and reports the tracker's lock escalations and per-shard
// assumption imbalance afterwards.
func shardSweepRate(procs, shards int) (rate float64, escalations int64, imbalance float64) {
	tr := tracker.New(tracker.WithShards(shards))
	const qlen = 4
	var queues [][]ids.AID
	for i := 0; i < procs; i++ {
		p := tr.Register(nopHooks{})
		x := tr.NewAID()
		if _, err := tr.Guess(p, x, 0); err != nil {
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
	writer := tr.Register(nopHooks{})
	resolve := func() {
		if err := tr.Affirm(writer, tr.NewAID()); err != nil {
			panic(err)
		}
	}

	caches := make([]tracker.TagClass, len(queues))
	sweep := func() {
		for i, tags := range queues {
			tr.ClassifyCached(tags, &caches[i])
		}
	}
	sweep() // warm the caches and the tracker's maps before timing

	// At the 100k-proc scale a sweep covers 400k entries and GC pauses
	// dominate a short run, so keep a floor of several sweeps to average
	// them out.
	const minOps = 400_000
	sweeps := minOps/len(queues) + 1
	if sweeps < 8 {
		sweeps = 8
	}
	start := time.Now()
	for s := 0; s < sweeps; s++ {
		resolve()
		sweep()
	}
	elapsed := time.Since(start)

	rate = float64(sweeps*len(queues)) / elapsed.Seconds()
	escalations = tr.Escalations()
	stats := tr.ShardStats()
	maxAIDs, sum := 0, 0
	for _, s := range stats {
		sum += s.AIDs
		if s.AIDs > maxAIDs {
			maxAIDs = s.AIDs
		}
	}
	if sum > 0 {
		imbalance = float64(maxAIDs) * float64(len(stats)) / float64(sum)
	}
	return rate, escalations, imbalance
}

// trackerScanRates returns classification ops/sec for the fresh and
// epoch-cached scan paths over the same tracker state.
func trackerScanRates(procs, qlen int) (fresh, cached float64) {
	tr := tracker.New()
	var queues [][]ids.AID
	for i := 0; i < procs; i++ {
		p := tr.Register(nopHooks{})
		x := tr.NewAID()
		if _, err := tr.Guess(p, x, 0); err != nil {
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

type nopHooks struct{}

func (nopHooks) NotifyRollback() {}

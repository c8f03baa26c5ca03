package obs

import (
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram with atomic counters: Observe is
// lock-free and allocation-free, safe from any goroutine. Bucket i counts
// observations v ≤ bounds[i]; the final bucket is unbounded.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
	max    atomic.Int64
}

func newHistogram(bounds ...int64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
	atomicMax(&h.max, v)
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra final
	// entry for the unbounded bucket.
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Max    int64   `json:"max"`
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.n.Load(),
		Sum:    h.sum.Load(),
		Max:    h.max.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Mean returns the average observed value, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// atomicMax raises *g to v if v is larger.
func atomicMax(g *atomic.Int64, v int64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// specLifetimeBounds buckets guess→resolution latency (nanoseconds):
// 1µs … 10s, decades.
var specLifetimeBounds = []int64{
	int64(time.Microsecond), int64(10 * time.Microsecond), int64(100 * time.Microsecond),
	int64(time.Millisecond), int64(10 * time.Millisecond), int64(100 * time.Millisecond),
	int64(time.Second), int64(10 * time.Second),
}

// replayDepthBounds buckets replay-log entries re-consumed per rollback.
var replayDepthBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024}

// MaxShards is the most tracker/scheduler shards the per-shard gauges
// can record; it mirrors tracker.MaxShards (the tracker caps its shard
// count here so a shard set fits one uint64 bitmask).
const MaxShards = 64

// MaxPeers is the most wire peers the per-peer transport counters can
// record; links past the cap still work, they just aggregate into no
// slot. Slots are handed out by Observer.RegisterWirePeer.
const MaxPeers = 16

// Metrics is the runtime's one registry of activity counters, gauges,
// and histograms: the tracker, engine and wire count here and nowhere
// else. All fields are updated atomically; read them through Snapshot.
type Metrics struct {
	// Speculation lifecycle.
	GuessesOpened atomic.Int64 // explicit guesses that opened an interval
	ShortGuesses  atomic.Int64 // guesses short-circuited on resolved AIDs
	MsgsTainted   atomic.Int64 // implicit-guess intervals from tagged deliveries
	Orphans       atomic.Int64 // orphaned messages dropped at delivery

	// Resolutions.
	Affirms     atomic.Int64
	SpecAffirms atomic.Int64
	Denies      atomic.Int64
	SpecDenies  atomic.Int64
	FreeOfs     atomic.Int64

	// Interval settlement.
	Committed  atomic.Int64 // intervals finalized
	RolledBack atomic.Int64 // intervals discarded by rollback cascades

	// Rollback/replay machinery.
	Rollbacks      atomic.Int64 // rollback targets applied (process restarts)
	ReplayedEnts   atomic.Int64 // replay-log entries re-consumed, total
	EffectsRun     atomic.Int64 // commit callbacks released
	EffectsAborted atomic.Int64 // abort compensations run

	// Checkpointing.
	Checkpoints     atomic.Int64 // checkpoint entries recorded in replay logs
	CheckpointBytes atomic.Int64 // approximate captured-state bytes, total
	Resumes         atomic.Int64 // recoveries restored from a checkpoint

	// Delivery and scheduling.
	MsgsEnqueued  atomic.Int64
	MaxQueueDepth atomic.Int64 // deepest single-process mailbox observed
	MaxSchedHeap  atomic.Int64 // deepest delivery-scheduler heap observed

	// Classification cache (engine queue scans).
	ClassifyHits   atomic.Int64 // memoized verdicts revalidated by epoch
	ClassifyMisses atomic.Int64 // verdicts recomputed under the tracker lock

	// Sharded-tracker gauges: one slot per shard, written by the tracker
	// (live assumption records, resolution epochs) and the per-shard
	// delivery schedulers (max heap depth). ShardContention counts settle or
	// classify operations whose footprint escaped their home shards and
	// escalated to an all-shard lock.
	ShardAssumptions [MaxShards]atomic.Int64
	ShardEpochs      [MaxShards]atomic.Int64
	ShardHeapDepth   [MaxShards]atomic.Int64
	ShardContention  atomic.Int64

	// Wire transport (populated only when internal/wire is attached):
	// one slot per registered peer link, plus the total fan-out of
	// locally-originated verdict broadcasts.
	WirePeerFramesIn     [MaxPeers]atomic.Int64
	WirePeerFramesOut    [MaxPeers]atomic.Int64
	WirePeerBytesIn      [MaxPeers]atomic.Int64
	WirePeerBytesOut     [MaxPeers]atomic.Int64
	WirePeerRedeliveries [MaxPeers]atomic.Int64
	WireVerdictFanout    atomic.Int64

	Annotations atomic.Int64

	// Admission policy (populated only when a speculation policy other
	// than always-on is attached; see internal/policy).
	PolicyDenies       atomic.Int64 // guesses denied speculation (waited instead)
	PolicyProbes       atomic.Int64 // probe admissions at throttled/off sites
	PolicyWaitTimeouts atomic.Int64 // pessimistic waits that hit their budget

	// Fault injection (populated only when a fault plan is attached).
	FaultCrashes  atomic.Int64 // processes killed at checkpoints
	FaultDrops    atomic.Int64 // messages discarded at send time
	FaultDups     atomic.Int64 // deliveries duplicated
	FaultDelays   atomic.Int64 // deliveries given extra latency
	FaultStalls   atomic.Int64 // resolutions stalled
	DupSuppressed atomic.Int64 // duplicate copies filtered at the receiver

	// SpecLifetime is guess→resolution latency (ns), observed at both
	// commit and rollback. ReplayDepth is log entries replayed per
	// rollback. RestoreDepth is log entries *skipped* per
	// checkpoint-restored recovery — how much re-execution each
	// checkpoint saved.
	SpecLifetime *Histogram
	ReplayDepth  *Histogram
	RestoreDepth *Histogram
}

func newMetrics() *Metrics {
	return &Metrics{
		SpecLifetime: newHistogram(specLifetimeBounds...),
		ReplayDepth:  newHistogram(replayDepthBounds...),
		RestoreDepth: newHistogram(replayDepthBounds...),
	}
}

// MetricsSnapshot is the plain-value form of Metrics, for JSON export
// and programmatic reads.
type MetricsSnapshot struct {
	GuessesOpened int64 `json:"guesses_opened"`
	ShortGuesses  int64 `json:"short_guesses"`
	MsgsTainted   int64 `json:"msgs_tainted"`
	Orphans       int64 `json:"orphans"`

	Affirms     int64 `json:"affirms"`
	SpecAffirms int64 `json:"spec_affirms"`
	Denies      int64 `json:"denies"`
	SpecDenies  int64 `json:"spec_denies"`
	FreeOfs     int64 `json:"free_ofs"`

	Committed  int64 `json:"committed"`
	RolledBack int64 `json:"rolled_back"`

	Rollbacks      int64 `json:"rollbacks"`
	ReplayedEnts   int64 `json:"replayed_entries"`
	EffectsRun     int64 `json:"effects_released"`
	EffectsAborted int64 `json:"effects_aborted"`

	Checkpoints     int64 `json:"checkpoints"`
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	Resumes         int64 `json:"resumes"`

	MsgsEnqueued  int64 `json:"msgs_enqueued"`
	MaxQueueDepth int64 `json:"max_queue_depth"`
	MaxSchedHeap  int64 `json:"max_sched_heap"`

	ClassifyHits   int64 `json:"classify_hits"`
	ClassifyMisses int64 `json:"classify_misses"`

	// Per-shard gauges are trimmed to the highest shard that ever
	// reported, so single-shard configurations stay compact.
	ShardAssumptions []int64 `json:"shard_assumptions,omitempty"`
	ShardEpochs      []int64 `json:"shard_epochs,omitempty"`
	ShardHeapDepth   []int64 `json:"shard_heap_depth,omitempty"`
	ShardContention  int64   `json:"shard_contention,omitempty"`

	WireVerdictFanout int64 `json:"wire_verdict_fanout,omitempty"`

	Annotations int64 `json:"annotations"`

	PolicyDenies       int64 `json:"policy_denies,omitempty"`
	PolicyProbes       int64 `json:"policy_probes,omitempty"`
	PolicyWaitTimeouts int64 `json:"policy_wait_timeouts,omitempty"`

	FaultCrashes  int64 `json:"fault_crashes"`
	FaultDrops    int64 `json:"fault_drops"`
	FaultDups     int64 `json:"fault_dups"`
	FaultDelays   int64 `json:"fault_delays"`
	FaultStalls   int64 `json:"fault_stalls"`
	DupSuppressed int64 `json:"dup_suppressed"`

	SpecLifetime HistogramSnapshot `json:"spec_lifetime_ns"`
	ReplayDepth  HistogramSnapshot `json:"replay_depth"`
	RestoreDepth HistogramSnapshot `json:"restore_depth"`
}

// shardSlice copies a per-shard gauge array, trimmed to the highest
// shard whose gauge is nonzero now (nil when none is).
func shardSlice(a *[MaxShards]atomic.Int64) []int64 {
	n := MaxShards
	for n > 0 && a[n-1].Load() == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = a[i].Load()
	}
	return out
}

// Snapshot copies every counter and histogram.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		GuessesOpened: m.GuessesOpened.Load(),
		ShortGuesses:  m.ShortGuesses.Load(),
		MsgsTainted:   m.MsgsTainted.Load(),
		Orphans:       m.Orphans.Load(),

		Affirms:     m.Affirms.Load(),
		SpecAffirms: m.SpecAffirms.Load(),
		Denies:      m.Denies.Load(),
		SpecDenies:  m.SpecDenies.Load(),
		FreeOfs:     m.FreeOfs.Load(),

		Committed:  m.Committed.Load(),
		RolledBack: m.RolledBack.Load(),

		Rollbacks:      m.Rollbacks.Load(),
		ReplayedEnts:   m.ReplayedEnts.Load(),
		EffectsRun:     m.EffectsRun.Load(),
		EffectsAborted: m.EffectsAborted.Load(),

		Checkpoints:     m.Checkpoints.Load(),
		CheckpointBytes: m.CheckpointBytes.Load(),
		Resumes:         m.Resumes.Load(),

		MsgsEnqueued:  m.MsgsEnqueued.Load(),
		MaxQueueDepth: m.MaxQueueDepth.Load(),
		MaxSchedHeap:  m.MaxSchedHeap.Load(),

		ClassifyHits:   m.ClassifyHits.Load(),
		ClassifyMisses: m.ClassifyMisses.Load(),

		ShardAssumptions: shardSlice(&m.ShardAssumptions),
		ShardEpochs:      shardSlice(&m.ShardEpochs),
		ShardHeapDepth:   shardSlice(&m.ShardHeapDepth),
		ShardContention:  m.ShardContention.Load(),

		WireVerdictFanout: m.WireVerdictFanout.Load(),

		Annotations: m.Annotations.Load(),

		PolicyDenies:       m.PolicyDenies.Load(),
		PolicyProbes:       m.PolicyProbes.Load(),
		PolicyWaitTimeouts: m.PolicyWaitTimeouts.Load(),

		FaultCrashes:  m.FaultCrashes.Load(),
		FaultDrops:    m.FaultDrops.Load(),
		FaultDups:     m.FaultDups.Load(),
		FaultDelays:   m.FaultDelays.Load(),
		FaultStalls:   m.FaultStalls.Load(),
		DupSuppressed: m.DupSuppressed.Load(),

		SpecLifetime: m.SpecLifetime.Snapshot(),
		ReplayDepth:  m.ReplayDepth.Snapshot(),
		RestoreDepth: m.RestoreDepth.Snapshot(),
	}
}

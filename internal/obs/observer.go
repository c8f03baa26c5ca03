package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"hope/internal/ids"
)

// Observer is one runtime's observability sink: a metrics registry plus
// an optional bounded event ring. Attach one to a Runtime with
// engine.WithObserver (hope.WithObserver); every hook method is safe for
// concurrent use and safe on a nil receiver, so the engine calls hooks
// unconditionally and the uninstrumented runtime pays only nil checks.
type Observer struct {
	start time.Time
	m     *Metrics
	ring  *ring

	mu     sync.RWMutex
	names  map[ids.Proc]string
	byName map[string]ids.Proc
	peers  []string // wire-peer slot names, in RegisterWirePeer order

	// sites is the per-Guess-site registry (see sites.go).
	sites siteTable
}

// Option configures an Observer.
type Option func(*Observer)

// WithEventCapacity sets the event ring size (default 8192 events).
// Zero disables the event stream, keeping metrics only.
func WithEventCapacity(n int) Option {
	return func(o *Observer) { o.ring = newRing(n) }
}

// defaultEventCapacity keeps roughly the last 8k lifecycle transitions —
// enough for a full rollback cascade plus its surroundings at a few
// hundred bytes per event.
const defaultEventCapacity = 8192

// New creates an Observer.
func New(opts ...Option) *Observer {
	o := &Observer{
		start:  time.Now(),
		m:      newMetrics(),
		ring:   newRing(defaultEventCapacity),
		names:  make(map[ids.Proc]string),
		byName: make(map[string]ids.Proc),
	}
	for _, f := range opts {
		f(o)
	}
	return o
}

// Metrics exposes the live registry (nil on a nil Observer).
func (o *Observer) Metrics() *Metrics {
	if o == nil {
		return nil
	}
	return o.m
}

// Now returns the elapsed time since the observer started; the zero
// Observer reports 0. Event timestamps are expressed on this clock.
func (o *Observer) Now() time.Duration {
	if o == nil {
		return 0
	}
	return time.Since(o.start)
}

// RegisterProc associates a process id with its name, for dumps and
// trace export. Called by the engine at Spawn.
func (o *Observer) RegisterProc(id ids.Proc, name string) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.names[id] = name
	o.byName[name] = id
	o.mu.Unlock()
}

// ProcName resolves a process id to its registered name.
func (o *Observer) ProcName(id ids.Proc) string {
	if o == nil {
		return id.String()
	}
	o.mu.RLock()
	name, ok := o.names[id]
	o.mu.RUnlock()
	if !ok {
		return id.String()
	}
	return name
}

// Emit records one lifecycle event: the matching metric is updated and,
// when the event stream is enabled, the event is appended to the ring
// (stamped with a sequence number and elapsed time). Hook points in the
// engine and tracker call this; it never calls back into either.
func (o *Observer) Emit(k Kind, p ids.Proc, a ids.AID, iv ids.Interval, n int64) {
	if o == nil {
		return
	}
	o.emit(Event{Kind: k, Proc: p, AID: a, Interval: iv, N: n})
}

func (o *Observer) emit(e Event) {
	switch e.Kind {
	case KGuessOpened:
		o.m.GuessesOpened.Add(1)
	case KGuessShort:
		o.m.ShortGuesses.Add(1)
	case KMsgTainted:
		o.m.MsgsTainted.Add(1)
	case KOrphanDropped:
		o.m.Orphans.Add(1)
	case KAffirmed:
		o.m.Affirms.Add(1)
	case KSpecAffirmed:
		o.m.SpecAffirms.Add(1)
	case KDenied:
		o.m.Denies.Add(1)
	case KSpecDenied:
		o.m.SpecDenies.Add(1)
	case KFreeOf:
		o.m.FreeOfs.Add(1)
	case KCommitted:
		o.m.Committed.Add(1)
		o.m.SpecLifetime.Observe(e.N)
	case KRolledBack:
		o.m.RolledBack.Add(1)
		o.m.SpecLifetime.Observe(e.N)
	case KRollbackStarted:
		o.m.Rollbacks.Add(1)
	case KReplayed:
		o.m.ReplayedEnts.Add(e.N)
		o.m.ReplayDepth.Observe(e.N)
	case KEffectReleased:
		o.m.EffectsRun.Add(e.N)
	case KEffectAborted:
		o.m.EffectsAborted.Add(e.N)
	case KAnnotate:
		o.m.Annotations.Add(1)
	case KFaultCrash:
		o.m.FaultCrashes.Add(1)
	case KFaultDrop:
		o.m.FaultDrops.Add(1)
	case KFaultDup:
		o.m.FaultDups.Add(1)
	case KFaultDelay:
		o.m.FaultDelays.Add(1)
	case KFaultStall:
		o.m.FaultStalls.Add(1)
	case KDupSuppressed:
		o.m.DupSuppressed.Add(1)
	case KCheckpoint:
		o.m.Checkpoints.Add(1)
		o.m.CheckpointBytes.Add(e.N)
	case KRestored:
		o.m.Resumes.Add(1)
		o.m.RestoreDepth.Observe(e.N)
	case KPolicyDeny:
		o.m.PolicyDenies.Add(1)
	case KPolicyProbe:
		o.m.PolicyProbes.Add(1)
	case KPolicyWaitTimeout:
		o.m.PolicyWaitTimeouts.Add(1)
	}
	if o.ring != nil {
		e.T = time.Since(o.start)
		o.ring.append(e)
	}
}

// Annotate records an application-level marker attributed to the named
// process (empty name for a global marker). Runtime-side and write-only,
// it is safe to call from a process body: the marker may be re-emitted
// under replay, which accurately records that the section re-ran.
func (o *Observer) Annotate(proc, label string) {
	if o == nil {
		return
	}
	o.mu.RLock()
	id := o.byName[proc]
	o.mu.RUnlock()
	o.emit(Event{Kind: KAnnotate, Proc: id, Label: label})
}

// MsgEnqueued records one mailbox append and the resulting depth.
func (o *Observer) MsgEnqueued(depth int) {
	if o == nil {
		return
	}
	o.m.MsgsEnqueued.Add(1)
	atomicMax(&o.m.MaxQueueDepth, int64(depth))
}

// ClassifyScan records one queue-classification pass: hits revalidated a
// memoized verdict with an epoch load, misses re-ran the locked walk.
func (o *Observer) ClassifyScan(hits, misses int) {
	if o == nil {
		return
	}
	if hits > 0 {
		o.m.ClassifyHits.Add(int64(hits))
	}
	if misses > 0 {
		o.m.ClassifyMisses.Add(int64(misses))
	}
}

// SchedHeap records the delivery scheduler's heap depth.
func (o *Observer) SchedHeap(n int) {
	if o == nil {
		return
	}
	atomicMax(&o.m.MaxSchedHeap, int64(n))
}

// ShardAssumptions records the number of assumption records homed on one
// tracker shard (a gauge, overwritten on each report).
func (o *Observer) ShardAssumptions(shard, n int) {
	if o == nil || shard < 0 || shard >= MaxShards {
		return
	}
	o.m.ShardAssumptions[shard].Store(int64(n))
}

// ShardEpoch records one tracker shard's resolution epoch after a settle
// commit advanced it.
func (o *Observer) ShardEpoch(shard int, epoch uint64) {
	if o == nil || shard < 0 || shard >= MaxShards {
		return
	}
	o.m.ShardEpochs[shard].Store(int64(epoch))
}

// ShardHeap records one delivery-scheduler shard's heap depth.
func (o *Observer) ShardHeap(shard, depth int) {
	if o == nil || shard < 0 || shard >= MaxShards {
		return
	}
	atomicMax(&o.m.ShardHeapDepth[shard], int64(depth))
}

// ShardContention counts one settle or classify operation whose
// footprint escaped its home shards and escalated to an all-shard lock.
func (o *Observer) ShardContention() {
	if o == nil {
		return
	}
	o.m.ShardContention.Add(1)
}

// Events returns the retained event window in emission order and the
// number of older events lost to ring overwrite.
func (o *Observer) Events() (events []Event, dropped uint64) {
	if o == nil || o.ring == nil {
		return nil, 0
	}
	return o.ring.snapshot()
}

// Snapshot is the machine-readable point-in-time state of an Observer.
type Snapshot struct {
	UptimeSeconds  float64         `json:"uptime_seconds"`
	Metrics        MetricsSnapshot `json:"metrics"`
	EventsRecorded uint64          `json:"events_recorded"`
	EventsDropped  uint64          `json:"events_dropped"`
	Procs          []string        `json:"procs,omitempty"`
	WirePeers      []WirePeerStat  `json:"wire_peers,omitempty"`
	Sites          []SiteStat      `json:"sites,omitempty"`
}

// Snapshot captures the observer state. Counters are read individually
// (not atomically as a set); for settled totals, quiesce first.
func (o *Observer) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	events, dropped := o.Events()
	o.mu.RLock()
	procs := make([]string, 0, len(o.names))
	for _, n := range o.names {
		procs = append(procs, n)
	}
	o.mu.RUnlock()
	sort.Strings(procs)
	return Snapshot{
		UptimeSeconds:  time.Since(o.start).Seconds(),
		Metrics:        o.m.Snapshot(),
		EventsRecorded: uint64(len(events)) + dropped,
		EventsDropped:  dropped,
		Procs:          procs,
		WirePeers:      o.WirePeers(),
		Sites:          o.SiteStats(),
	}
}

// WriteJSON writes the snapshot as indented JSON.
func (o *Observer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(o.Snapshot())
}

// Dump renders the metrics for humans.
func (o *Observer) Dump() string {
	if o == nil {
		return "obs: no observer\n"
	}
	s := o.Snapshot()
	m := s.Metrics
	var b strings.Builder
	fmt.Fprintf(&b, "obs: uptime %.3fs, %d events (%d dropped)\n",
		s.UptimeSeconds, s.EventsRecorded, s.EventsDropped)
	fmt.Fprintf(&b, "  speculation: guesses=%d short=%d tainted-deliveries=%d orphans-dropped=%d\n",
		m.GuessesOpened, m.ShortGuesses, m.MsgsTainted, m.Orphans)
	fmt.Fprintf(&b, "  resolutions: affirm=%d spec-affirm=%d deny=%d spec-deny=%d free_of=%d\n",
		m.Affirms, m.SpecAffirms, m.Denies, m.SpecDenies, m.FreeOfs)
	fmt.Fprintf(&b, "  intervals:   committed=%d rolled-back=%d\n", m.Committed, m.RolledBack)
	fmt.Fprintf(&b, "  rollbacks:   applied=%d replayed-entries=%d max-replay-depth=%d\n",
		m.Rollbacks, m.ReplayedEnts, m.ReplayDepth.Max)
	if m.Checkpoints > 0 || m.Resumes > 0 {
		fmt.Fprintf(&b, "  checkpoints: taken=%d bytes=%d resumes=%d restore-skip(max)=%d\n",
			m.Checkpoints, m.CheckpointBytes, m.Resumes, m.RestoreDepth.Max)
	}
	fmt.Fprintf(&b, "  effects:     released=%d aborted=%d\n", m.EffectsRun, m.EffectsAborted)
	fmt.Fprintf(&b, "  delivery:    enqueued=%d max-queue=%d max-sched-heap=%d\n",
		m.MsgsEnqueued, m.MaxQueueDepth, m.MaxSchedHeap)
	total := m.ClassifyHits + m.ClassifyMisses
	hitPct := 0.0
	if total > 0 {
		hitPct = 100 * float64(m.ClassifyHits) / float64(total)
	}
	fmt.Fprintf(&b, "  classify:    hits=%d misses=%d (%.1f%% cached)\n",
		m.ClassifyHits, m.ClassifyMisses, hitPct)
	if n := len(m.ShardAssumptions); n > 0 || m.ShardContention > 0 {
		maxA, sumA := int64(0), int64(0)
		for _, v := range m.ShardAssumptions {
			sumA += v
			if v > maxA {
				maxA = v
			}
		}
		imbalance := 1.0
		if n > 0 && sumA > 0 {
			imbalance = float64(maxA) * float64(n) / float64(sumA)
		}
		fmt.Fprintf(&b, "  shards:      n=%d assumptions=%d imbalance=%.2fx escalations=%d\n",
			n, sumA, imbalance, m.ShardContention)
		if len(m.ShardHeapDepth) > 0 {
			fmt.Fprintf(&b, "               sched-heaps(max)=%v\n", m.ShardHeapDepth)
		}
	}
	b.WriteString(o.dumpWire())
	if m.PolicyDenies+m.PolicyProbes+m.PolicyWaitTimeouts > 0 {
		fmt.Fprintf(&b, "  policy:      admission-denies=%d probes=%d wait-timeouts=%d\n",
			m.PolicyDenies, m.PolicyProbes, m.PolicyWaitTimeouts)
	}
	b.WriteString(o.dumpSites())
	if m.FaultCrashes+m.FaultDrops+m.FaultDups+m.FaultDelays+m.FaultStalls > 0 {
		fmt.Fprintf(&b, "  faults:      crashes=%d drops=%d dups=%d delays=%d stalls=%d (dup-suppressed=%d)\n",
			m.FaultCrashes, m.FaultDrops, m.FaultDups, m.FaultDelays, m.FaultStalls, m.DupSuppressed)
	}
	if m.SpecLifetime.Count > 0 {
		fmt.Fprintf(&b, "  spec lifetime: n=%d mean=%v max=%v\n", m.SpecLifetime.Count,
			time.Duration(m.SpecLifetime.Mean()).Round(time.Microsecond),
			time.Duration(m.SpecLifetime.Max).Round(time.Microsecond))
	}
	return b.String()
}

// DumpEvents renders the retained event window, one event per line.
func (o *Observer) DumpEvents() string {
	events, dropped := o.Events()
	var b strings.Builder
	if dropped > 0 {
		fmt.Fprintf(&b, "... %d earlier events dropped ...\n", dropped)
	}
	for _, e := range events {
		b.WriteString(e.String())
		if e.Proc.Valid() {
			fmt.Fprintf(&b, " (%s)", o.ProcName(e.Proc))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

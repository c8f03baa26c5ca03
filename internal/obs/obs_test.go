package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hope/internal/ids"
)

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	o.Emit(KGuessOpened, 1, 2, 3, 0)
	o.Annotate("p", "x")
	o.MsgEnqueued(4)
	o.ClassifyScan(1, 2)
	o.SchedHeap(9)
	o.RegisterProc(1, "p")
	if ev, dropped := o.Events(); ev != nil || dropped != 0 {
		t.Fatalf("nil observer events = %v, %d", ev, dropped)
	}
	if s := o.Snapshot(); s.EventsRecorded != 0 {
		t.Fatalf("nil observer snapshot = %+v", s)
	}
	if o.Metrics() != nil {
		t.Fatal("nil observer has metrics")
	}
	if got := o.Dump(); !strings.Contains(got, "no observer") {
		t.Fatalf("nil dump = %q", got)
	}
}

func TestEmitUpdatesMetricsAndRing(t *testing.T) {
	o := New(WithEventCapacity(16))
	o.RegisterProc(1, "worker")
	o.Emit(KGuessOpened, 1, 7, 3, 0)
	o.Emit(KMsgTainted, 1, 7, 4, 2)
	o.Emit(KDenied, 2, 7, 0, 0)
	o.Emit(KRolledBack, 1, 0, 4, int64(5*time.Microsecond))
	o.Emit(KRollbackStarted, 1, 0, 0, 9)
	o.Emit(KReplayed, 1, 0, 0, 6)
	o.Emit(KCommitted, 1, 0, 3, int64(time.Millisecond))
	o.Emit(KEffectReleased, 1, 0, 0, 4)

	m := o.Metrics().Snapshot()
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"GuessesOpened", m.GuessesOpened, 1},
		{"MsgsTainted", m.MsgsTainted, 1},
		{"Denies", m.Denies, 1},
		{"RolledBack", m.RolledBack, 1},
		{"Rollbacks", m.Rollbacks, 1},
		{"ReplayedEnts", m.ReplayedEnts, 6},
		{"Committed", m.Committed, 1},
		{"EffectsRun", m.EffectsRun, 4},
		{"SpecLifetime.Count", m.SpecLifetime.Count, 2},
		{"ReplayDepth.Max", m.ReplayDepth.Max, 6},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}

	events, dropped := o.Events()
	if dropped != 0 || len(events) != 8 {
		t.Fatalf("events = %d dropped = %d, want 8, 0", len(events), dropped)
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	if name := o.ProcName(events[0].Proc); name != "worker" {
		t.Fatalf("proc name = %q", name)
	}
}

func TestRingOverflowKeepsRecentWindow(t *testing.T) {
	o := New(WithEventCapacity(4))
	for i := 0; i < 10; i++ {
		o.Emit(KGuessShort, 1, ids.AID(i+1), 0, 1)
	}
	events, dropped := o.Events()
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	if len(events) != 4 {
		t.Fatalf("len(events) = %d, want 4", len(events))
	}
	for i, e := range events {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
	if s := o.Snapshot(); s.EventsDropped != 6 || s.EventsRecorded != 10 {
		t.Fatalf("snapshot events = %d dropped = %d", s.EventsRecorded, s.EventsDropped)
	}
}

func TestEventCapacityZeroDisablesRing(t *testing.T) {
	o := New(WithEventCapacity(0))
	o.Emit(KGuessOpened, 1, 1, 1, 0)
	if ev, _ := o.Events(); ev != nil {
		t.Fatalf("ringless observer retained events: %v", ev)
	}
	if m := o.Metrics().Snapshot(); m.GuessesOpened != 1 {
		t.Fatal("metrics not updated without ring")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram(10, 100)
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if want := []int64{2, 2, 1}; len(s.Counts) != 3 ||
		s.Counts[0] != want[0] || s.Counts[1] != want[1] || s.Counts[2] != want[2] {
		t.Fatalf("counts = %v, want %v", s.Counts, want)
	}
	if s.Max != 5000 || s.Count != 5 || s.Sum != 5122 {
		t.Fatalf("snapshot = %+v", s)
	}
	if got := s.Mean(); got != 5122.0/5 {
		t.Fatalf("mean = %v", got)
	}
}

func TestSnapshotJSONRoundTrips(t *testing.T) {
	o := New()
	o.RegisterProc(1, "a")
	o.Emit(KGuessOpened, 1, 1, 1, 0)
	var buf bytes.Buffer
	if err := o.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Metrics.GuessesOpened != 1 || len(s.Procs) != 1 || s.Procs[0] != "a" {
		t.Fatalf("round-tripped snapshot = %+v", s)
	}
}

func TestChromeTraceExport(t *testing.T) {
	o := New()
	o.RegisterProc(1, "worker")
	o.Emit(KGuessOpened, 1, 3, 7, 0)
	o.Emit(KDenied, 2, 3, 0, 0)
	o.Emit(KRollbackStarted, 1, 0, 0, 2)
	o.Emit(KRolledBack, 1, 0, 7, 1500)
	o.Emit(KReplayed, 1, 0, 0, 2)
	o.Emit(KGuessOpened, 1, 4, 8, 0) // still live at export

	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	var sawThreadName, sawLiveClose bool
	for _, ev := range tr.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if ev["name"] == "thread_name" {
			sawThreadName = true
		}
		if args, ok := ev["args"].(map[string]any); ok && args["outcome"] == "live" {
			sawLiveClose = true
		}
	}
	if phases["b"] != 2 || phases["e"] != 2 {
		t.Fatalf("span phases = %v, want 2 b and 2 e", phases)
	}
	if phases["i"] < 3 {
		t.Fatalf("instant events = %d, want ≥ 3", phases["i"])
	}
	if !sawThreadName {
		t.Fatal("no thread_name metadata")
	}
	if !sawLiveClose {
		t.Fatal("unsettled span was not closed as live")
	}
}

func TestDumpMentionsActivity(t *testing.T) {
	o := New()
	o.Emit(KGuessOpened, 1, 1, 1, 0)
	o.Emit(KRollbackStarted, 1, 0, 0, 3)
	o.MsgEnqueued(5)
	o.ClassifyScan(10, 2)
	got := o.Dump()
	for _, want := range []string{"guesses=1", "applied=1", "max-queue=5", "hits=10"} {
		if !strings.Contains(got, want) {
			t.Errorf("dump missing %q:\n%s", want, got)
		}
	}
	if !strings.Contains(o.DumpEvents(), "guess-opened") {
		t.Error("event dump missing guess-opened")
	}
}

// TestDumpCountsShardsWithNoLiveAssumptions pins the shard count to the
// longest per-shard gauge: the assumption gauge trims to nil once every
// assumption has settled, and the shards still exist.
func TestDumpCountsShardsWithNoLiveAssumptions(t *testing.T) {
	o := New()
	for shard := 0; shard < 2; shard++ {
		o.ShardAssumptions(shard, 3)
		o.ShardEpoch(shard, uint64(5+shard))
		o.ShardHeap(shard, 1)
		o.ShardAssumptions(shard, 0)
	}
	got := o.Dump()
	for _, want := range []string{"n=2 assumptions=0", "assumptions=[0 0] epochs=[5 6] sched-heaps(max)=[1 1]"} {
		if !strings.Contains(got, want) {
			t.Errorf("dump missing %q:\n%s", want, got)
		}
	}
}

// TestDumpRowPerWireLink checks that Dump's wire section has one row per
// registered link under its own name, beside the totals.
func TestDumpRowPerWireLink(t *testing.T) {
	o := New()
	out := o.RegisterWirePeer("node0→node1")
	in := o.RegisterWirePeer("node0←node1")
	o.WireFrameOut(out, 40)
	o.WireFrameIn(in, 30)
	o.WireRedelivery(in)
	got := o.Dump()
	for _, want := range []string{
		"peers=2 frames=1/1 bytes=40/30 (out/in) redeliveries=1",
		"node0←node1      frames=0/1 bytes=0/30 redeliveries=1\n",
		"node0→node1      frames=1/0 bytes=40/0 redeliveries=0\n",
	} {
		if strings.Count(got, want) != 1 {
			t.Errorf("dump has %q %d times, want once:\n%s", want, strings.Count(got, want), got)
		}
	}
}

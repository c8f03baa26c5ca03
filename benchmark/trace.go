package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// spanKind names the call a span surrounds. The layer is the module
// the call goes into.
type spanKind uint8

const (
	spSend spanKind = iota
	spNewAID
	spGuess
	spAffirm
	spDeny
	spEffect
	spRecv        // Recv/RecvMatch: mostly waiting for a message
	spRecvSettled // RecvSettled: mostly waiting for a verdict
	spStreamCall
	spCall
	spStart
	spBarrier
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"engine.send", "engine.newaid", "engine.guess", "engine.affirm", "engine.deny", "engine.effect",
	"engine.recv_wait", "engine.recv_settled_wait", "rpc.streamcall", "rpc.call", "wire.start", "wire.barrier",
}

// span is one timed call made by a body (or, for wire.Node, by the
// harness) on behalf of op; op is -1 when the call serves no single op.
type span struct {
	kind       spanKind
	op         int32
	start, end int64
}

// tracer records one process's spans. All methods are no-ops on a nil
// tracer, which is what an untraced episode hands its bodies: the
// untraced path costs two nil checks per call and no clock read.
type tracer struct {
	name  string
	spans []span
}

func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	return now()
}

// end records the span that began at t0. A call that unwinds with a
// rollback never reaches end, so the doomed call leaves no span.
func (t *tracer) end(k spanKind, op int, t0 int64) {
	if t == nil {
		return
	}
	//hopevet:ignore escape -- span log of a traced run; replayed calls are spans too
	t.spans = append(t.spans, span{kind: k, op: int32(op), start: t0, end: now()})
}

// layers accumulates what the traced episodes of a run say about
// single layers: span durations, how the spans cover each op's
// makespan, and the program's own counters, one value per episode.
type layers struct {
	s samples

	// Coverage of op makespans, summed over episodes: each instant of an
	// op's issue→commit window is charged to the span covering it that
	// started last, or to no span. share sums to makespan - uncovered.
	share     [nSpanKinds]int64
	makespan  int64
	uncovered int64

	// first is the first traced episode, kept for the trace file.
	first *episode
}

// spanQuantiles names the per-layer metrics that are a quantile of one
// kind of span's durations, taken per episode.
var spanQuantiles = []struct {
	kind spanKind
	q    float64
	name string
}{
	{spSend, 0.5, "engine.send_ns_p50"}, {spSend, 0.99, "engine.send_ns_p99"},
	{spNewAID, 0.5, "engine.newaid_ns_p50"},
	{spGuess, 0.5, "engine.guess_ns_p50"}, {spGuess, 0.99, "engine.guess_ns_p99"},
	{spAffirm, 0.5, "engine.affirm_ns_p50"}, {spDeny, 0.5, "engine.deny_ns_p50"},
	{spEffect, 0.5, "engine.effect_ns_p50"},
	{spRecv, 0.5, "engine.recv_wait_ns_p50"}, {spRecvSettled, 0.5, "engine.recv_settled_wait_ns_p50"},
}

// fold adds one traced episode.
func (l *layers) fold(ep *episode, res *result) {
	if l.first == nil {
		l.first = ep
	}
	var dur [nSpanKinds][]int64
	byOp := make([][]span, len(ep.want))
	for _, t := range ep.tracers {
		for _, s := range t.spans {
			dur[s.kind] = append(dur[s.kind], s.end-s.start)
			if s.op >= 0 {
				byOp[s.op] = append(byOp[s.op], s)
			}
		}
	}
	for _, sq := range spanQuantiles {
		if len(dur[sq.kind]) == 0 {
			continue
		}
		l.s.add(sq.name, quantileNs(dur[sq.kind], sq.q))
	}
	var resume []int64
	before := l.uncovered
	span0 := l.makespan
	for op, spans := range byOp {
		if ep.committed[op] == 0 {
			continue
		}
		if ep.denyAt[op] != 0 && ep.reenterAt[op] > ep.denyAt[op] {
			resume = append(resume, ep.reenterAt[op]-ep.denyAt[op])
		}
		l.cover(spans, ep.issued[op], ep.committed[op])
	}
	if len(resume) > 0 {
		l.s.add("engine.rollback_resume_ns_p50", quantileNs(resume, 0.5))
	}
	l.s.add("engine.span_residual_pct", 100*ratio(float64(l.uncovered-before), float64(l.makespan-span0)))
	l.s.add("engine.commit_latency_p99_us", quantileNs(res.lat, 0.99)/1e3)
	l.s.add("engine.commit_latency_p999_us", quantileNs(res.lat, 0.999)/1e3)

	ops := float64(res.committed)
	snap := ep.obs.Snapshot()
	m := snap.Metrics
	l.s.add("engine.replayed_entries_per_op", float64(m.ReplayedEnts)/ops)
	l.s.add("engine.rollbacks_per_op", float64(m.Rollbacks)/ops)
	l.s.add("engine.max_replay_depth", float64(m.ReplayDepth.Max))
	l.s.add("engine.checkpoint_resumes_per_rollback", ratio(float64(m.Resumes), float64(m.Rollbacks)))
	l.s.add("engine.max_queue_depth", float64(m.MaxQueueDepth))
	l.s.add("engine.max_sched_heap", float64(m.MaxSchedHeap))
	l.s.add("engine.classify_hit_ratio", ratio(float64(m.ClassifyHits), float64(m.ClassifyHits+m.ClassifyMisses)))
	l.s.add("tracker.escalations_per_op", float64(m.ShardContention)/ops)
	l.s.add("tracker.rolled_back_intervals_per_op", float64(m.RolledBack)/ops)
	var sum, top int64
	for _, a := range m.ShardAssumptions {
		sum += a
		top = max(top, a)
	}
	l.s.add("tracker.shard_imbalance", ratio(float64(top)*float64(len(m.ShardAssumptions)), float64(sum)))
	var frames, bytes, redelivered int64
	for _, p := range snap.WirePeers {
		frames += p.FramesOut
		bytes += p.BytesOut
		redelivered += p.Redeliveries
	}
	l.s.add("wire.frames_out_per_op", float64(frames)/ops)
	l.s.add("wire.bytes_out_per_op", float64(bytes)/ops)
	l.s.add("wire.verdict_broadcasts_per_op", float64(m.WireVerdictFanout)/ops)
	l.s.add("wire.redeliveries_per_op", float64(redelivered)/ops)
	l.s.add("obs.events_dropped", float64(snap.EventsDropped))
}

// cover charges the window [from, to) of one op to its spans.
func (l *layers) cover(spans []span, from, to int64) {
	l.makespan += to - from
	// Elementary segments between consecutive span boundaries; each is
	// charged to the covering span that started last.
	cuts := []int64{from, to}
	for _, s := range spans {
		if s.start > from && s.start < to {
			cuts = append(cuts, s.start)
		}
		if s.end > from && s.end < to {
			cuts = append(cuts, s.end)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if a == b {
			continue
		}
		owner := -1
		for j, s := range spans {
			if s.start <= a && s.end >= b && (owner < 0 || s.start > spans[owner].start) {
				owner = j
			}
		}
		if owner < 0 {
			l.uncovered += b - a
		} else {
			l.share[spans[owner].kind] += b - a
		}
	}
}

// shares renders the accounting of op makespan: the share each kind of
// span covers and the residual no span covers; the parts sum to 100.
func (l *layers) shares() string {
	if l.makespan == 0 {
		return "no committed ops traced"
	}
	s := ""
	for k, ns := range l.share {
		if ns > 0 {
			s += fmt.Sprintf("%s %.1f%%, ", spanNames[k], 100*float64(ns)/float64(l.makespan))
		}
	}
	return s + fmt.Sprintf("no span %.1f%%", 100*float64(l.uncovered)/float64(l.makespan))
}

// writeChrome writes the first traced episode as Chrome trace-event
// JSON (chrome://tracing, ui.perfetto.dev): one thread per process with
// a complete event per call span, and one async event per op from its
// first issue to its commit. Spans and ops share the op id.
func (l *layers) writeChrome(w io.Writer, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"` // microseconds
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		ID   string         `json:"id,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	evs := []event{}
	if ep := l.first; ep != nil {
		opID := func(op int) string { return fmt.Sprintf("%s/%d/%d", workload, ep.in, op) }
		for tid, t := range ep.tracers {
			evs = append(evs, event{Name: "thread_name", Ph: "M", PID: 1, TID: tid, Args: map[string]any{"name": t.name}})
			for _, s := range t.spans {
				ev := event{Name: spanNames[s.kind], Ph: "X", TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, PID: 1, TID: tid}
				if s.op >= 0 {
					ev.Args = map[string]any{"op": opID(int(s.op))}
				}
				evs = append(evs, ev)
			}
		}
		for op, at := range ep.committed {
			if at == 0 {
				continue
			}
			evs = append(evs,
				event{Name: "op", Cat: "op", Ph: "b", TS: float64(ep.issued[op]) / 1e3, PID: 1, ID: opID(op), Args: map[string]any{"denied": ep.denied[op], "executions": ep.execs[op]}},
				event{Name: "op", Cat: "op", Ph: "e", TS: float64(at) / 1e3, PID: 1, ID: opID(op)})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
}

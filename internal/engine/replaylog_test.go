package engine

import (
	"testing"
	"unsafe"

	"hope/internal/ids"
)

// TestEntrySize pins the replay-log record at 32 bytes: a kind, two
// flags, one scalar and one reference. A field added back for one kind
// grows every entry of every log.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 32 {
		t.Fatalf("entry is %d bytes, want 32", got)
	}
}

// TestReplayLogSegments drives the segmented log across its first and
// second segment boundaries, checks that entries read back in push order
// and that a pointer into a full segment survives later pushes, cuts it
// mid-segment, on a boundary and to zero — every dropped entry zeroed —
// and refills it without allocating.
func TestReplayLogSegments(t *testing.T) {
	var l replayLog
	n := 2*logSegment + 3
	ref := new(int)
	var held *entry
	for i := 0; i < n; i++ {
		got := l.push(entry{kind: entryRand, x: uint64(i), ref: ref}, nil)
		if got != l.at(i) || l.len() != i+1 {
			t.Fatalf("push %d: stored at %p, at(%d) = %p, len %d", i, got, i, l.at(i), l.len())
		}
		if i == logSegment+5 {
			held = got
		}
	}
	if len(l.segs) != 3 || len(l.segs[0]) != logSegment {
		t.Fatalf("%d entries in %d segments, first of %d; want 3, first of %d", n, len(l.segs), len(l.segs[0]), logSegment)
	}
	for i := 0; i < n; i++ {
		if e := l.at(i); e.x != uint64(i) || e.ref != ref {
			t.Fatalf("at(%d) = %+v, want x=%d", i, *e, i)
		}
	}
	if held != l.at(logSegment+5) || held.x != logSegment+5 {
		t.Fatalf("pointer into the second segment moved or changed: %+v", *held)
	}

	cuts := []int{logSegment + 100, logSegment, 0}
	for _, k := range cuts {
		before := l.len()
		l.cut(k)
		if l.len() != k {
			t.Fatalf("cut(%d): len %d", k, l.len())
		}
		for i := k; i < before; i++ {
			if e := l.at(i); *e != (entry{}) {
				t.Fatalf("cut(%d): dropped entry %d not zeroed: %+v", k, i, *e)
			}
		}
		for i := 0; i < k; i++ {
			if e := l.at(i); e.x != uint64(i) || e.ref != ref {
				t.Fatalf("cut(%d): kept entry %d changed: %+v", k, i, *e)
			}
		}
	}
	if len(l.segs) != 3 {
		t.Fatalf("cut(0) kept %d segments, want all 3 for reuse", len(l.segs))
	}

	// A short log, still inside a first segment that has not reached
	// full length: the case every compacting Loop hits.
	var short replayLog
	for i := 0; i < 6; i++ {
		short.push(entry{kind: entryRand, x: uint64(i), ref: ref}, nil)
	}
	short.cut(2)
	for i := 2; i < 6; i++ {
		if e := short.at(i); *e != (entry{}) {
			t.Fatalf("short cut(2): dropped entry %d not zeroed: %+v", i, *e)
		}
	}
	if short.len() != 2 || short.at(1).x != 1 {
		t.Fatalf("short cut(2): len %d, at(1) = %+v", short.len(), *short.at(1))
	}

	refill := func() {
		l.cut(0)
		for i := 0; i < n; i++ {
			l.push(entry{kind: entryRand, x: uint64(i)}, nil)
		}
	}
	allocs := testing.AllocsPerRun(10, refill)
	if !raceEnabled && allocs != 0 {
		t.Fatalf("refilling %d entries after cut(0) allocated %.0f times, want 0", n, allocs)
	}
}

// TestReplayLogMessageStore drives the message store beside the log: a
// receive's message is copied into it by value and its entry points at
// the copy. Segments hold 4, 8, 16, 32 and then msgSegment messages;
// pointers into them survive every later push; a cut drops exactly the
// messages of the entries it drops, zeroed; and a refill after cut(0)
// allocates nothing.
func TestReplayLogMessageStore(t *testing.T) {
	for _, c := range [][3]int{{0, 0, 0}, {3, 0, 3}, {4, 1, 0}, {11, 1, 7}, {12, 2, 0}, {27, 2, 15}, {28, 3, 0}, {59, 3, 31}, {60, 4, 0}, {123, 4, 63}, {124, 5, 0}, {200, 6, 12}} {
		if s, o := msgSlot(c[0]); s != c[1] || o != c[2] {
			t.Fatalf("msgSlot(%d) = (%d, %d), want (%d, %d)", c[0], s, o, c[1], c[2])
		}
	}
	var l replayLog
	const n = 3 * msgSegment
	payloads := make([]*int, n)
	var held []*message
	for i := 0; i < n; i++ {
		// Every third entry is a receive: the store holds one message
		// per receive, in log order.
		if i%3 != 0 {
			l.push(entry{kind: entrySend, ok: true}, nil)
			continue
		}
		payloads[i] = new(int)
		m := message{seq: uint64(i), from: "src", payload: payloads[i], tags: []ids.AID{ids.AID(i)}}
		e := l.push(entry{kind: entryRecv, ok: true, x: uint64(i)}, &m)
		if got := e.msg(); got == nil || got == &m || got.seq != m.seq || got.payload != m.payload || &got.tags[0] != &m.tags[0] {
			t.Fatalf("entry %d: stored message %+v, want a copy of %+v", i, got, m)
		}
		held = append(held, e.msg())
	}
	if l.msgs.n != n/3 {
		t.Fatalf("%d messages stored, want %d", l.msgs.n, n/3)
	}
	for s, seg := range l.msgs.segs {
		want := msgSegment
		if s < 4 {
			want = 4 << s
		}
		if len(seg) != want {
			t.Fatalf("segment %d holds %d messages, want %d", s, len(seg), want)
		}
	}
	for k, m := range held {
		i := 3 * k
		if l.at(i).msg() != m || m.seq != uint64(i) || m.payload != payloads[i] {
			t.Fatalf("message of entry %d moved or changed: %+v", i, *m)
		}
	}

	// Cut inside the store's fixed segments, inside a growing one, then
	// to zero: the store keeps exactly the messages of the kept entries.
	for _, k := range []int{n - 40, 50, 0} {
		before := l.msgs.n
		l.cut(k)
		keep := (k + 2) / 3
		if l.msgs.n != keep {
			t.Fatalf("cut(%d): %d messages kept, want %d", k, l.msgs.n, keep)
		}
		for j := keep; j < before; j++ {
			if m := held[j]; m.payload != nil || m.tags != nil || m.from != "" || m.seq != 0 {
				t.Fatalf("cut(%d): dropped message %d not zeroed: %+v", k, j, *m)
			}
		}
		for j := 0; j < keep; j++ {
			if held[j].payload != payloads[3*j] || l.at(3*j).msg() != held[j] {
				t.Fatalf("cut(%d): kept message %d changed", k, j)
			}
		}
	}

	segs := len(l.msgs.segs)
	m := message{seq: 1, payload: payloads[0]}
	refill := func() {
		l.cut(0)
		for i := 0; i < n; i++ {
			if i%3 == 0 {
				l.push(entry{kind: entryRecv, ok: true}, &m)
			} else {
				l.push(entry{kind: entrySend, ok: true}, nil)
			}
		}
	}
	allocs := testing.AllocsPerRun(10, refill)
	if !raceEnabled && allocs != 0 {
		t.Fatalf("refilling %d messages after cut(0) allocated %.0f times, want 0", n/3, allocs)
	}
	if len(l.msgs.segs) != segs {
		t.Fatalf("refill grew the store from %d to %d segments", segs, len(l.msgs.segs))
	}
}

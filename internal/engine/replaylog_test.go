package engine

import (
	"testing"
	"unsafe"
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
		got := l.push(entry{kind: entryRand, x: uint64(i), ref: ref})
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
		short.push(entry{kind: entryRand, x: uint64(i), ref: ref})
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
			l.push(entry{kind: entryRand, x: uint64(i)})
		}
	}
	allocs := testing.AllocsPerRun(10, refill)
	if !raceEnabled && allocs != 0 {
		t.Fatalf("refilling %d entries after cut(0) allocated %.0f times, want 0", n, allocs)
	}
}

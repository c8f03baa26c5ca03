package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestRecordAndDump(t *testing.T) {
	r := NewRecorder()
	r.Record("p1", "compute", "step 1")
	r.RecordSend("p1", "m1", "to p2")
	r.RecordRecv("p2", "m1", "from p1")
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Seq != 0 || evs[2].Seq != 2 {
		t.Fatalf("seqs wrong: %+v", evs)
	}
	// The receive's clock must dominate the send's.
	if !evs[1].Clock.Before(evs[2].Clock) {
		t.Fatalf("recv clock %v does not follow send clock %v", evs[2].Clock, evs[1].Clock)
	}
	dump := r.Dump()
	if !strings.Contains(dump, "compute") || !strings.Contains(dump, "recv") {
		t.Fatalf("dump missing events:\n%s", dump)
	}
}

func TestCausalityCheckPasses(t *testing.T) {
	r := NewRecorder()
	r.RecordSend("a", "t1", "x")
	r.RecordRecv("b", "t1", "x")
	r.RecordSend("b", "t2", "y")
	r.RecordRecv("a", "t2", "y")
	if err := r.CheckCausality(); err != nil {
		t.Fatal(err)
	}
}

// A receive committed before its send was recorded cannot have merged the
// send's clock: the committed history released an effect ahead of its
// cause, and the check must say so.
func TestCausalityViolationDetected(t *testing.T) {
	r := NewRecorder()
	r.RecordRecv("b", "t1", "x")
	r.RecordSend("a", "t1", "x")
	if err := r.CheckCausality(); err == nil {
		t.Fatalf("recv recorded ahead of its send passed the check:\n%s", r.Dump())
	}
}

func TestUnmatchedRecvTolerated(t *testing.T) {
	r := NewRecorder()
	r.RecordRecv("b", "never-sent", "x")
	if err := r.CheckCausality(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			proc := string(rune('a' + i))
			for j := 0; j < 100; j++ {
				r.Record(proc, "op", "j")
			}
		}(i)
	}
	wg.Wait()
	if got := len(r.Events()); got != 800 {
		t.Fatalf("events = %d, want 800", got)
	}
	if err := r.CheckCausality(); err != nil {
		t.Fatal(err)
	}
}

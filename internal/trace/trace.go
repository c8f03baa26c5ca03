// Package trace records committed application events with vector-clock
// causality, for demo output and for validating that the HOPE runtime
// releases effects in a causally consistent order. Examples attach
// Record calls as commit effects, so the trace contains exactly the
// definite history — speculative events that roll back never appear.
package trace

import (
	"fmt"
	"strings"
	"sync"

	"hope/internal/vclock"
)

// Event is one committed application event.
type Event struct {
	Seq    int
	Proc   string
	Kind   string
	Detail string
	// Token names the message a send or recv event carries ("" otherwise).
	Token string
	Clock vclock.VC
}

// String renders the event for demo output.
func (e Event) String() string {
	return fmt.Sprintf("#%03d %-12s %-8s %s %s", e.Seq, e.Proc, e.Kind, e.Detail, e.Clock)
}

// Recorder accumulates events. Safe for concurrent use (commit effects
// run from arbitrary goroutines).
type Recorder struct {
	mu     sync.Mutex
	events []Event
	clocks map[string]vclock.VC
	// sendClocks remembers the clock attached to each sent token so the
	// matching receive can merge it.
	sendClocks map[string]vclock.VC
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		clocks:     make(map[string]vclock.VC),
		sendClocks: make(map[string]vclock.VC),
	}
}

func (r *Recorder) tickLocked(proc string) vclock.VC {
	c, ok := r.clocks[proc]
	if !ok {
		c = vclock.New()
	}
	c.Tick(proc)
	r.clocks[proc] = c
	return c.Clone()
}

// Record logs a local event at proc.
func (r *Recorder) Record(proc, kind, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{
		Seq: len(r.events), Proc: proc, Kind: kind, Detail: detail,
		Clock: r.tickLocked(proc),
	})
}

// RecordSend logs a send of token from proc, remembering its clock for
// the matching RecordRecv.
func (r *Recorder) RecordSend(proc, token, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.tickLocked(proc)
	r.sendClocks[token] = c
	r.events = append(r.events, Event{
		Seq: len(r.events), Proc: proc, Kind: "send", Detail: detail, Token: token, Clock: c,
	})
}

// RecordRecv logs a receive of token at proc, merging the sender's clock.
func (r *Recorder) RecordRecv(proc, token, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.clocks[proc]
	if !ok {
		c = vclock.New()
	}
	if sc, ok := r.sendClocks[token]; ok {
		c.Merge(sc)
	}
	c.Tick(proc)
	r.clocks[proc] = c
	r.events = append(r.events, Event{
		Seq: len(r.events), Proc: proc, Kind: "recv", Detail: detail, Token: token, Clock: c.Clone(),
	})
}

// Events returns a copy of the committed events in commit order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// CheckCausality verifies that every receive whose token has a recorded
// send is strictly after that send in vector time, returning the first
// violation found. RecordRecv merges the send's clock only if the send
// was committed first, so a receive released ahead of its send fails
// here. A receive of a token never sent is tolerated. (Per-process
// monotonicity is not checked: the recorder only ever ticks or merges a
// process's clock, so it holds by construction.)
func (r *Recorder) CheckCausality() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.events {
		if e.Kind != "recv" {
			continue
		}
		if sc, ok := r.sendClocks[e.Token]; ok && !sc.Before(e.Clock) {
			return fmt.Errorf("causality violation: %s recv #%d of %q clock %v is not after its send's clock %v",
				e.Proc, e.Seq, e.Token, e.Clock, sc)
		}
	}
	return nil
}

// Dump renders the full trace.
func (r *Recorder) Dump() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Package trace records committed application events in commit order,
// for demo output and for validating that the HOPE runtime releases
// effects in a causally consistent order. Examples attach Record calls
// as commit effects, so the trace contains exactly the definite history
// — speculative events that roll back never appear.
package trace

import (
	"fmt"
	"strings"
	"sync"
)

// Event is one committed application event.
type Event struct {
	Seq    int // commit index: the order events were recorded in
	Proc   string
	Kind   string
	Detail string
	// Token names the message a send or recv event carries ("" otherwise).
	Token string
}

// String renders the event for demo output.
func (e Event) String() string {
	return fmt.Sprintf("#%03d %-12s %-8s %s", e.Seq, e.Proc, e.Kind, e.Detail)
}

// Recorder accumulates events. Safe for concurrent use (commit effects
// run from arbitrary goroutines).
type Recorder struct {
	mu     sync.Mutex
	events []Event
	// sendSeq holds the Seq of each token's latest recorded send.
	sendSeq map[string]int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{sendSeq: make(map[string]int)}
}

// Record logs a local event at proc.
func (r *Recorder) Record(proc, kind, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{Seq: len(r.events), Proc: proc, Kind: kind, Detail: detail})
}

// RecordSend logs a send of token from proc.
func (r *Recorder) RecordSend(proc, token, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sendSeq[token] = len(r.events)
	r.events = append(r.events, Event{Seq: len(r.events), Proc: proc, Kind: "send", Detail: detail, Token: token})
}

// RecordRecv logs a receive of token at proc.
func (r *Recorder) RecordRecv(proc, token, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{Seq: len(r.events), Proc: proc, Kind: "recv", Detail: detail, Token: token})
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
// send was committed after that send — the send's Seq is below the
// receive's — returning the first violation found. A receive committed
// ahead of its send fails here; a receive of a token never sent is
// tolerated.
func (r *Recorder) CheckCausality() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.events {
		if e.Kind != "recv" {
			continue
		}
		if s, ok := r.sendSeq[e.Token]; ok && s >= e.Seq {
			return fmt.Errorf("causality violation: %s recv #%d of %q is not after its send #%d",
				e.Proc, e.Seq, e.Token, s)
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

// Package obs is the runtime observability layer of the HOPE runtime:
// a low-overhead metrics registry plus a ring-buffered stream of
// speculation-lifecycle events, with exporters for JSON snapshots,
// human-readable dumps, and Chrome trace-event timelines
// (chrome://tracing / Perfetto).
//
// The paper's central claim is that HOPE makes optimism visible to the
// system — every guess/affirm/deny and every dependent interval is
// tracked (§4–5). This package makes that visibility operational: the
// engine and tracker call Observer hooks at each lifecycle transition
// (guess opened, message tainted, resolution, commit, rollback, replay),
// and tools like cmd/hopetop render the result.
//
// # Replay safety
//
// Everything here is strictly runtime-side: observers are write-only
// from the runtime's point of view. No engine or tracker code path reads
// observer state to make a decision, and process bodies cannot observe
// it through their *Proc handle — so attaching an Observer can never
// perturb the piecewise-deterministic replay that rollback depends on.
// Events emitted by a doomed continuation simply remain in the stream,
// marked by the rollback events that follow them; that is a feature (the
// deopt path is exactly what needs to be visible), not a leak.
//
// A nil *Observer is the no-op sink: every hook method checks the
// receiver and returns immediately, so the uninstrumented runtime pays
// one nil check per hook point.
package obs

import (
	"fmt"
	"sync"
	"time"

	"hope/internal/ids"
)

// Kind classifies one lifecycle event.
type Kind uint8

const (
	// KGuessOpened: an explicit guess opened a speculative interval.
	KGuessOpened Kind = iota + 1
	// KGuessShort: a guess short-circuited on an already-resolved AID
	// (N = 1 when it returned true, 0 when false).
	KGuessShort
	// KMsgTainted: delivering a speculatively-tagged message implicitly
	// guessed its assumptions, opening an interval (N = unresolved
	// dependency count).
	KMsgTainted
	// KOrphanDropped: a message whose tags were transitively denied was
	// discarded at delivery.
	KOrphanDropped
	// KAffirmed / KSpecAffirmed: an assumption was affirmed, definitely
	// or speculatively (Interval = the affirmer when speculative).
	KAffirmed
	KSpecAffirmed
	// KDenied / KSpecDenied: an assumption was denied, definitely or
	// speculatively (Interval = the claimant when speculative).
	KDenied
	KSpecDenied
	// KFreeOf: a free_of assertion was evaluated.
	KFreeOf
	// KCommitted: a speculative interval finalized — its effects were
	// released (N = the interval's lifetime in nanoseconds).
	KCommitted
	// KRolledBack: a speculative interval was discarded by a rollback
	// cascade (N = the interval's lifetime in nanoseconds).
	KRolledBack
	// KRollbackStarted: a process began applying a rollback target
	// (N = the replay-log index it restarts from).
	KRollbackStarted
	// KReplayed: a process finished re-consuming its surviving log
	// prefix after a rollback (N = entries replayed).
	KReplayed
	// KEffectReleased / KEffectAborted: buffered effects ran at
	// finalize, or compensations ran at rollback (N = callback count).
	KEffectReleased
	KEffectAborted
	// KAnnotate: an application-level marker (Label carries the text).
	KAnnotate
	// KFaultCrash: the fault plan killed a process at a checkpoint; it
	// restarts by replaying its log.
	KFaultCrash
	// KFaultDrop: the fault plan discarded a message at send time (the
	// sender saw a retryable delivery error). Like KFaultDup and
	// KFaultDelay it names the sending process, local link or remote.
	KFaultDrop
	// KFaultDup: the fault plan duplicated a delivery (the engine's
	// per-link filter suppresses the copy at the receiver).
	KFaultDup
	// KFaultDelay: the fault plan added extra delivery latency
	// (N = injected delay in nanoseconds).
	KFaultDelay
	// KFaultStall: the fault plan stalled a resolution before it
	// committed (N = injected delay in nanoseconds).
	KFaultStall
	// KDupSuppressed: the per-link duplicate filter dropped an
	// already-delivered message copy.
	KDupSuppressed
	// KCheckpoint: a process recorded a checkpoint entry in its replay
	// log (N = approximate captured-state bytes).
	KCheckpoint
	// KRestored: a rollback or crash recovery resumed a process from its
	// newest surviving checkpoint instead of replaying the whole log
	// (N = log entries skipped by the restore).
	KRestored
	// KPolicyDeny: the admission controller denied speculation at a
	// Guess site (N = the site hash as int64); the guess waited for its
	// real verdict instead.
	KPolicyDeny
	// KPolicyProbe: a throttled/off site admitted one probe guess to
	// keep its accuracy estimator learning (N = the site hash).
	KPolicyProbe
	// KPolicyWaitTimeout: a pessimistic wait exhausted its budget
	// before the assumption resolved; the guess fell back to
	// speculating (N = the site hash).
	KPolicyWaitTimeout
)

// String names the kind in lifecycle vocabulary.
func (k Kind) String() string {
	switch k {
	case KGuessOpened:
		return "guess-opened"
	case KGuessShort:
		return "guess-short"
	case KMsgTainted:
		return "msg-tainted"
	case KOrphanDropped:
		return "orphan-dropped"
	case KAffirmed:
		return "affirmed"
	case KSpecAffirmed:
		return "spec-affirmed"
	case KDenied:
		return "denied"
	case KSpecDenied:
		return "spec-denied"
	case KFreeOf:
		return "free-of"
	case KCommitted:
		return "committed"
	case KRolledBack:
		return "rolled-back"
	case KRollbackStarted:
		return "rollback-started"
	case KReplayed:
		return "replayed"
	case KEffectReleased:
		return "effect-released"
	case KEffectAborted:
		return "effect-aborted"
	case KAnnotate:
		return "annotate"
	case KFaultCrash:
		return "fault-crash"
	case KFaultDrop:
		return "fault-drop"
	case KFaultDup:
		return "fault-dup"
	case KFaultDelay:
		return "fault-delay"
	case KFaultStall:
		return "fault-stall"
	case KDupSuppressed:
		return "dup-suppressed"
	case KCheckpoint:
		return "checkpoint"
	case KRestored:
		return "restored"
	case KPolicyDeny:
		return "policy-deny"
	case KPolicyProbe:
		return "policy-probe"
	case KPolicyWaitTimeout:
		return "policy-wait-timeout"
	default:
		return "invalid"
	}
}

// Event is one speculation-lifecycle event.
type Event struct {
	// Seq is the global emission sequence number (dense, from 1).
	Seq uint64
	// T is the elapsed time since the Observer was created.
	T time.Duration
	// Kind classifies the event.
	Kind Kind
	// Proc is the process the event belongs to (NoProc for events with
	// no process, e.g. an unattributed annotation).
	Proc ids.Proc
	// AID is the assumption involved, if any.
	AID ids.AID
	// Interval is the interval involved, if any.
	Interval ids.Interval
	// N is a kind-specific magnitude; see the Kind constants.
	N int64
	// Label is the annotation text (KAnnotate only).
	Label string
}

// String renders the event for dumps.
func (e Event) String() string {
	s := fmt.Sprintf("#%06d %12s %-16s", e.Seq, e.T.Round(time.Microsecond), e.Kind)
	if e.Proc.Valid() {
		s += fmt.Sprintf(" %v", e.Proc)
	}
	if e.AID.Valid() {
		s += fmt.Sprintf(" %v", e.AID)
	}
	if e.Interval.Valid() {
		s += fmt.Sprintf(" %v", e.Interval)
	}
	if e.N != 0 {
		s += fmt.Sprintf(" n=%d", e.N)
	}
	if e.Label != "" {
		s += " " + e.Label
	}
	return s
}

// ring is a fixed-capacity event buffer. Overflow policy: overwrite the
// oldest event and count it as dropped — the recent window is what
// matters when diagnosing a live system, and a bounded buffer is the
// only way emission stays O(1) with no allocation under rollback storms.
type ring struct {
	mu  sync.Mutex
	buf []Event
	n   uint64 // total events ever appended
}

func newRing(capacity int) *ring {
	if capacity <= 0 {
		return nil
	}
	return &ring{buf: make([]Event, capacity)}
}

// append stamps e with the next sequence number and stores it. The
// number is taken under the same lock as the slot: taken outside it, two
// emitters could store in the opposite order to their numbers and a
// reader would see a window that is not contiguous.
func (r *ring) append(e Event) {
	r.mu.Lock()
	e.Seq = r.n + 1
	r.buf[int(r.n%uint64(len(r.buf)))] = e
	r.n++
	r.mu.Unlock()
}

// snapshot returns the retained events in emission order, plus the count
// of events lost to overwrite.
func (r *ring) snapshot() (events []Event, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.n
	if kept > uint64(len(r.buf)) {
		kept = uint64(len(r.buf))
		dropped = r.n - kept
	}
	events = make([]Event, 0, kept)
	for i := r.n - kept; i < r.n; i++ {
		events = append(events, r.buf[int(i%uint64(len(r.buf)))])
	}
	return events, dropped
}

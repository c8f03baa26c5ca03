package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hope/internal/ids"
	"hope/internal/obs"
	"hope/internal/tracker"
)

// AID is a handle on one optimistic assumption.
type AID struct{ id ids.AID }

// Valid reports whether the AID names a real assumption.
func (a AID) Valid() bool { return a.id.Valid() }

// String renders the AID in the paper's notation.
func (a AID) String() string { return a.id.String() }

// Msg is one received message.
type Msg struct {
	// From is the sender's process name.
	From string
	// Payload is the sent value. Treat it as immutable: the same value
	// is returned again if the receive is replayed.
	Payload any
}

// rmsg is the internal form of a message.
type rmsg struct {
	seq     uint64
	from    string
	payload any
	tags    []ids.AID
	// wire marks a message injected by the cross-process transport
	// (Runtime.InjectRemote): the per-link duplicate filter applies to it
	// even when the receiving runtime has no local fault plan, because
	// duplication may have been injected at the sender's wire.
	wire bool
	// cls memoizes the tag set's classification verdict (guarded by the
	// owning receiver's mu, like the queue itself): repeated queue scans
	// revalidate it with one atomic epoch load instead of a locked
	// dependency walk. Refreshed by scanQueueLocked as it reaches the
	// message; never read without that revalidation.
	cls tracker.TagClass
}

// procPhase is a process's scheduling state, used by Quiesce.
type procPhase int

const (
	stateRunning procPhase = iota + 1
	stateBlocked           // waiting in Recv
	stateParked            // body returned, speculation unsettled
	stateDone              // body returned and all speculation settled
)

// String names the phase.
func (s procPhase) String() string {
	switch s {
	case stateRunning:
		return "running"
	case stateBlocked:
		return "blocked"
	case stateParked:
		return "parked"
	case stateDone:
		return "done"
	default:
		return "invalid"
	}
}

// rollbackSignal unwinds a process goroutine back to its loop for replay.
type rollbackSignal struct{}

// crashSignal unwinds a process goroutine for an injected crash: unlike a
// rollback there is no target to apply, so the whole retained log replays
// — the PWD model of a process dying and recovering from its log.
type crashSignal struct{}

// fatalSignal unwinds a process goroutine on an unrecoverable error.
type fatalSignal struct{ err error }

type entryKind int

const (
	entryGuess entryKind = iota + 1
	entryRecv
	entrySend
	entryAffirm
	entryDeny
	entryFreeOf
	entryNewAID
	entryEffect
	entryRand
	entryOutcome
	entryCheckpoint
)

// entry is one replay-log record.
type entry struct {
	kind  entryKind
	aid   ids.AID
	ok    bool         // guess result; resolution or send success; entryRecv: got msg (false = timed out)
	msg   *rmsg        // for entryRecv
	iv    ids.Interval // for entryRecv: the implicit interval, if any
	val   int64        // for entryRand
	state any          // for entryCheckpoint: the captured user state
}

// Proc is the handle a process body uses for every interaction with the
// HOPE runtime. All methods must be called from the body's goroutine.
type Proc struct {
	rt   *Runtime
	name string
	id   ids.Proc
	body func(*Proc) error

	mu     sync.Mutex
	cond   *sync.Cond
	queue  mailbox
	closed bool
	err    error
	// state and wait are guarded by mu and written only by setPhase; wait
	// is what a blocked process is waiting for (zero in any other phase).
	state procPhase
	wait  wait
	// lastSeq is the per-sender duplicate filter, active only under fault
	// injection: the transport may deliver a message twice (at-least-once
	// semantics), and since sequence numbers are monotone per link in
	// send order, any arrival not newer than the last is a duplicate.
	lastSeq map[string]uint64

	// Replay state: owned by the process goroutine, no lock needed.
	// logBase is the absolute index of log[0]: compaction (engine.Loop)
	// discards settled history by advancing it.
	logBase int
	log     []entry
	replay  int
	rng     *rand.Rand
	// replayStart is where the current attempt's replay cursor began —
	// after a checkpoint restore it is the entry after the checkpoint, so
	// KReplayed reports only the suffix actually re-consumed.
	replayStart int
	// lastCp is the log index just past the most recent checkpoint (or 0
	// after compaction): the cadence origin for checkpointDue.
	lastCp int
	// crashed marks that the previous attempt ended in an injected crash
	// (read and cleared by applyPending on the next attempt).
	crashed bool
	// restoredState/hasRestored hand the newest surviving checkpoint's
	// state to the next attempt; Restored consumes them.
	restoredState any
	hasRestored   bool

	restarts atomic.Int32
	resumes  atomic.Int32
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Restarts reports how many times the body has been re-executed from
// scratch — a rollback or crash recovery with no surviving checkpoint,
// replaying the whole retained log.
func (p *Proc) Restarts() int { return int(p.restarts.Load()) }

// Resumes reports how many times a rollback or crash recovery restored
// the body from a checkpoint instead, replaying only the log suffix
// after it.
func (p *Proc) Resumes() int { return int(p.resumes.Load()) }

// Err returns the body's final error (after Wait).
func (p *Proc) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

func (p *Proc) phase() procPhase {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// wait is what a blocked process is waiting for: a message deliverable
// under mode and pred (nil matching anything), or — when aid is valid, a
// pessimistic guess whose admission was denied — that assumption's
// terminal verdict; either way no later than deadline (zero = unbounded).
type wait struct {
	mode     scanMode
	pred     func(any) bool
	aid      ids.AID
	deadline time.Time
}

// expired reports whether the wait's deadline has passed.
func (w *wait) expired() bool { return !w.deadline.IsZero() && !time.Now().Before(w.deadline) }

// resolutionWaiter reports whether a process in phase s waiting for w
// can make progress on a resolution alone, with nothing enqueued to it:
// a wait for a verdict or a settled message, or a parked body, whose
// speculation settles when another process's resolution finalizes its
// last interval. Such processes are registered in rt.settledWaiters for
// the resolution watcher to wake.
func resolutionWaiter(s procPhase, w *wait) bool {
	return s == stateParked || w.aid.Valid() || w.mode == scanSettled
}

// String renders the wait for DebugString.
func (w *wait) String() string {
	s := "any"
	switch {
	case w.aid.Valid():
		s = "aid " + w.aid.String()
	case w.mode == scanSettled:
		s = "settled"
	case w.pred != nil:
		s = "match"
	}
	if !w.deadline.IsZero() {
		s += fmt.Sprintf(" deadline=%+dms", time.Until(w.deadline).Milliseconds())
	}
	return s
}

// setPhase flips the scheduling phase and, in the same critical section,
// stores what a blocked process waits for and registers or deregisters it
// with the resolution watcher. The write happens under rt.mu (as well as
// p.mu) so Quiesce's stability scan — which holds rt.mu — is a consistent
// snapshot: no proc can change phase, wait reason or watcher registration,
// or gain queued work, while a scan is in progress. In particular a
// process woken by its deadline stays "blocked with a deadline" (which
// hasWork counts as work) until the very write that makes it running, so
// Quiesce cannot return under a process that is about to resume.
func (p *Proc) setPhase(s procPhase, w wait) {
	p.rt.mu.Lock()
	p.mu.Lock()
	if g := resolutionWaiter(s, &w); g != resolutionWaiter(p.state, &p.wait) {
		if g {
			p.rt.settledWaiters[p] = struct{}{}
		} else {
			delete(p.rt.settledWaiters, p)
		}
	}
	p.state, p.wait = s, w
	p.mu.Unlock()
	p.rt.cond.Broadcast()
	p.rt.mu.Unlock()
}

// scanMode selects what the unified queue scanner treats as deliverable.
type scanMode int

const (
	// scanAny delivers the oldest predicate match, tags unexamined —
	// the optimistic receive (Recv/RecvMatch), which becomes dependent
	// on whatever it consumes and lets Deliver weed out orphans.
	scanAny scanMode = iota
	// scanSettled acts on the oldest message whose tags have resolved:
	// settled delivers, orphaned drops, speculative waits — the
	// pessimistic receive (RecvSettled).
	scanSettled
	// scanNonOrphan delivers the oldest predicate match that is not an
	// orphan — the stability probe's notion of a message that would
	// actually make a blocked optimistic receiver progress.
	scanNonOrphan
)

// scanQueueLocked is the one queue scan shared by every receive path and
// stability probe: it returns the index of the oldest message deliverable
// under mode (and pred, nil matching anything), and — in scanSettled mode
// — the index of the oldest droppable orphan instead when that comes
// first. Both are -1 when nothing qualifies. Modes that read tags
// classify lazily, in queue order, and stop at the first hit: a message's
// memoized verdict is revalidated (atomic epoch loads) or recomputed
// (home-shard read locks) only when the scan reaches it, so a receive
// whose head is deliverable examines one message whatever the depth.
// Lock order rt.mu → p.mu → tracker shard locks is preserved. Caller
// holds p.mu.
func (p *Proc) scanQueueLocked(mode scanMode, pred func(any) bool) (deliver, drop int) {
	deliver, drop = -1, -1
	tr := p.rt.tr
	examined, stale := 0, 0
	for i, m := range p.queue.live() {
		if pred != nil && !pred(m.payload) {
			continue
		}
		if mode == scanAny {
			return i, -1
		}
		examined++
		if !tr.ClassCurrent(&m.cls) {
			stale++
			tr.ClassifyCached(m.tags, &m.cls)
		}
		if m.cls.Orphan {
			if mode == scanSettled {
				drop = i
				break
			}
			continue
		}
		if m.cls.Settled || mode == scanNonOrphan {
			deliver = i
			break
		}
	}
	p.rt.obs.ClassifyScan(examined-stale, stale)
	return deliver, drop
}

// readyLocked reports whether what w waits for has happened, scanning the
// queue under mode (block passes w.mode, the stability probe a stricter
// one): anything deliverable or droppable counts as progress. An AID wait
// ends only on a definitive verdict. SpecAffirmed is revocable — treating
// it as decided would log a terminal verdict that a later rollback could
// contradict, and the verifier pushes no pessimistic reply for a clean
// speculative affirm, so acting on it would strand the caller. Caller
// holds p.mu.
func (p *Proc) readyLocked(w *wait, mode scanMode) bool {
	if w.aid.Valid() {
		return p.rt.tr.Status(w.aid).Terminal()
	}
	deliver, drop := p.scanQueueLocked(mode, w.pred)
	return deliver >= 0 || drop >= 0
}

// hasWork reports whether a blocked/parked process will make progress:
// a pending rollback, a pending deadline, or (when blocked) what it waits
// for being ready — an unresolvable AID or settled wait is stable
// (DrainDenyUnresolved breaks the tie). Called with rt.mu held; takes
// p.mu then tracker shard locks (lock order).
func (p *Proc) hasWork() bool {
	if p.rt.tr.PendingRollback(p.id) {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state != stateBlocked {
		return false
	}
	if !p.wait.deadline.IsZero() {
		// The deadline's timer will fire on its own: not stable yet.
		return true
	}
	mode := p.wait.mode
	if mode == scanAny {
		// An orphan would be consumed and dropped, not delivered.
		mode = scanNonOrphan
	}
	return p.readyLocked(&p.wait, mode)
}

// enqueue appends a message and wakes the process. Appends happen under
// rt.mu so the Quiesce scan cannot miss a message enqueued to an
// already-scanned process (see setPhase).
func (p *Proc) enqueue(m *rmsg) {
	p.rt.mu.Lock()
	p.mu.Lock()
	if p.rt.faults != nil || m.wire {
		// Per-link duplicate filter: sequence numbers are allocated in
		// send order and links are FIFO, so an arrival not newer than
		// the link's high-water mark is an injected duplicate. Rollback
		// requeues bypass enqueue, so a replayed message never trips it.
		if last, seen := p.lastSeq[m.from]; seen && m.seq <= last {
			p.mu.Unlock()
			p.rt.mu.Unlock()
			p.rt.obs.Emit(obs.KDupSuppressed, p.id, ids.NoAID, ids.NoInterval, 0)
			return
		}
		if p.lastSeq == nil {
			p.lastSeq = make(map[string]uint64)
		}
		p.lastSeq[m.from] = m.seq
	}
	p.queue.pushBack(m)
	depth := p.queue.len()
	p.cond.Broadcast()
	p.mu.Unlock()
	p.rt.cond.Broadcast()
	p.rt.mu.Unlock()
	p.rt.obs.MsgEnqueued(depth)
}

// wake makes a blocked or parked process re-examine its wait: a rollback
// target landed (NotifyRollback) or a receive deadline passed.
func (p *Proc) wake() {
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
	p.rt.bump()
}

// loop is the process goroutine: run the body, replaying after each
// rollback, until it completes definitively (or fatally).
func (p *Proc) loop() {
	for p.attempt() {
	}
	p.setPhase(stateDone, wait{})
}

// attempt runs the body once (replaying any surviving prefix) and reports
// whether a rollback requires another attempt.
func (p *Proc) attempt() (restart bool) {
	p.applyPending()
	defer func() {
		switch r := recover().(type) {
		case nil:
		case rollbackSignal:
			restart = true
		case crashSignal:
			p.crashed = true
			restart = true
		case fatalSignal:
			p.mu.Lock()
			p.err = r.err
			p.mu.Unlock()
		default:
			panic(r)
		}
	}()
	err := p.body(p)
	p.mu.Lock()
	p.err = err
	p.mu.Unlock()
	p.park() // may panic rollbackSignal
	return false
}

// applyPending truncates the replay log to the pending rollback target:
// an explicit guess entry is kept and rewritten to return false; an
// implicit (receive) entry is dropped so the receive re-executes.
// Messages consumed in the discarded suffix return to the front of the
// queue; orphans among them are filtered at the next delivery. The next
// attempt then resumes from the newest checkpoint surviving the cut —
// replaying only the suffix after it — or from the top of the retained
// log when none does.
func (p *Proc) applyPending() {
	tgtp := p.rt.tr.TakePending(p.id)
	crashed := p.crashed
	p.crashed = false
	p.mu.Lock()
	defer p.mu.Unlock()
	p.restoredState, p.hasRestored = nil, false
	if tgtp == nil {
		// No rollback target: the first attempt, or an injected crash.
		// A crash truncates nothing — the whole retained log replays,
		// short-circuited by the newest checkpoint if one exists.
		p.resumeLocked(crashed)
		return
	}
	tgt := *tgtp
	p.rt.obs.Emit(obs.KRollbackStarted, p.id, ids.NoAID, ids.NoInterval, int64(tgt.LogIndex))
	rel := tgt.LogIndex - p.logBase
	if rel < 0 || rel >= len(p.log) {
		// Internal invariant: targets are merged under the tracker lock
		// in the same critical section that discards intervals, and
		// compaction only happens while definite, so a target can never
		// fall outside the retained log.
		panic(fmt.Sprintf("hope: rollback target %d outside log [%d,%d)", tgt.LogIndex, p.logBase, p.logBase+len(p.log)))
	}
	cut := rel
	if !tgt.Implicit {
		e := p.log[rel]
		e.ok = false // guess(x) returns False on resumption (§3, Eq. 24)
		p.log[rel] = e
		cut = rel + 1
	}
	var requeue []*rmsg
	for _, e := range p.log[cut:] {
		if e.kind == entryRecv && e.ok { // a logged timeout consumed nothing
			if e.iv.Valid() && p.rt.tr.WasFinalized(p.id, e.iv) {
				panic(fmt.Sprintf("hope: requeueing finalized receive %v (log target %d)", e.iv, tgt.LogIndex))
			}
			requeue = append(requeue, e.msg)
		}
	}
	p.log = p.log[:cut]
	p.queue.pushFront(requeue...)
	p.resumeLocked(true)
}

// resumeLocked positions the replay cursor for the next attempt: just
// past the newest checkpoint retained in the log, stashing its state
// for Restored, or at the top when no checkpoint survives. counted
// marks a genuine re-execution (rollback or crash recovery) for the
// Resumes/Restarts split; the first attempt is neither. Caller holds
// p.mu.
func (p *Proc) resumeLocked(counted bool) {
	k := -1
	for i := len(p.log) - 1; i >= 0; i-- {
		if p.log[i].kind == entryCheckpoint {
			k = i
			break
		}
	}
	p.replay = k + 1
	p.replayStart = k + 1
	p.lastCp = k + 1
	if k >= 0 {
		p.restoredState, p.hasRestored = p.log[k].state, true
		if counted {
			p.resumes.Add(1)
		}
		p.rt.obs.Emit(obs.KRestored, p.id, ids.NoAID, ids.NoInterval, int64(k+1))
	} else if counted {
		p.restarts.Add(1)
	}
	if counted && p.replay == len(p.log) {
		// Nothing to replay past the restore point: record the zero-depth
		// replay here (replayed never fires when the suffix is empty).
		p.rt.obs.Emit(obs.KReplayed, p.id, ids.NoAID, ids.NoInterval, 0)
	}
}

// park blocks a completed body until its speculation settles, the runtime
// shuts down, or a rollback re-activates it. Parked, the process is a
// resolution waiter (setPhase): the finalize that makes it definite is a
// resolution, and the watcher wakes it.
func (p *Proc) park() {
	p.setPhase(stateParked, wait{})
	p.mu.Lock()
	for {
		// Definite is read before PendingRollback: a deny discards the
		// live intervals (making the process definite) and installs the
		// rollback target in one tracker critical section, so reading in
		// the other order could see "no target" before the deny and
		// "definite" after it, and exit with the rollback never applied.
		definite := p.rt.tr.Definite(p.id)
		if p.rt.tr.PendingRollback(p.id) {
			p.mu.Unlock()
			p.setPhase(stateRunning, wait{})
			panic(rollbackSignal{})
		}
		if p.closed || definite {
			break
		}
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// checkPending panics into the loop if a rollback has been requested, and
// is the crash-injection checkpoint: every primitive passes through here
// on entry and exit, so an injected crash always lands between logged
// operations — never half way through one — and restart-by-replay
// reconstructs the exact pre-crash state.
func (p *Proc) checkPending() {
	if p.rt.tr.PendingRollback(p.id) {
		panic(rollbackSignal{})
	}
	p.maybeCrash()
}

// maybeCrash consults the fault plan at a checkpoint. Crashes are only
// injected in live execution: a crash during replay would re-roll
// decisions the schedule has already spent, and recovery itself is not a
// fault site.
func (p *Proc) maybeCrash() {
	f := p.rt.faults
	if f == nil || p.replaying() {
		return
	}
	if !f.CrashNow(p.name) {
		return
	}
	p.rt.obs.Emit(obs.KFaultCrash, p.id, ids.NoAID, ids.NoInterval, 0)
	panic(crashSignal{})
}

func (p *Proc) replaying() bool { return p.replay < len(p.log) }

// replayed and logged are the one logged decision every primitive is a
// client of: ask replayed for the recorded outcome; if there is none,
// decide live and hand the outcome to logged. Both edges pass
// checkPending; a live half that unwinds (rollback, fatal error) logs
// nothing, so the retried or replayed primitive decides again.

// replayed is the entry edge: while the replay cursor is inside the log
// it consumes the next entry, verifying the body re-executed the same
// operation; nil means the caller is live. The entry is read in place —
// valid until the log is next appended to or cut.
func (p *Proc) replayed(kind entryKind, aid ids.AID) *entry {
	p.checkPending()
	if !p.replaying() {
		return nil
	}
	e := &p.log[p.replay]
	if e.kind != kind || (aid.Valid() && e.aid != aid) {
		p.fatal(fmt.Errorf("%w: replayed %v, got op kind %d aid %v", ErrNondeterministic, *e, kind, aid))
	}
	p.replay++
	if !p.replaying() {
		p.rt.obs.Emit(obs.KReplayed, p.id, ids.NoAID, ids.NoInterval, int64(len(p.log)-p.replayStart))
	}
	return e
}

// logged is the exit edge: it appends a live decision and keeps the
// replay cursor caught up, so replaying() is true only while re-consuming
// a truncated prefix.
func (p *Proc) logged(e entry) *entry {
	p.log = append(p.log, e)
	p.replay = len(p.log)
	p.checkPending()
	return &p.log[len(p.log)-1]
}

func (p *Proc) fatal(err error) { panic(fatalSignal{err}) }

// trackerErr converts a tracker failure into the proper unwind: a pending
// rollback becomes the rollback signal (the call belonged to a doomed
// continuation); anything else is fatal.
func (p *Proc) trackerErr(err error) {
	if errors.Is(err, tracker.ErrRolledBack) {
		panic(rollbackSignal{})
	}
	p.fatal(err)
}

// --- the HOPE primitives ----------------------------------------------------

// NewAID creates a fresh assumption identifier. AIDs may be shared with
// other processes by sending them in message payloads.
func (p *Proc) NewAID() AID {
	e := p.replayed(entryNewAID, ids.NoAID)
	if e == nil {
		e = p.logged(entry{kind: entryNewAID, aid: p.rt.tr.NewAID()})
	}
	return AID{id: e.aid}
}

// Guess makes the optimistic assumption a: it returns true immediately and
// speculatively; if a is later denied, the process is rolled back to this
// point and Guess returns false instead (§3, Section 5.1).
//
// With an admission controller attached (engine.WithSpeculation), a live
// Guess first asks the controller whether speculating at this call site
// pays. A denied admission waits — bounded by the controller's wait
// budget — for a's real verdict and returns it without opening an
// interval; a wait that exhausts its budget falls back to speculating.
// Either way the returned verdict is recorded as an ordinary guess entry,
// so replay reproduces the decision without re-consulting the controller:
// this replay path is byte-identical to the pre-policy one.
func (p *Proc) Guess(a AID) bool {
	if e := p.replayed(entryGuess, a.id); e != nil {
		return e.ok
	}
	c := p.rt.spec
	var site uint64
	if c != nil {
		var key string
		site, key = p.rt.guessSite()
		v := c.Admit(site)
		p.rt.obs.SiteGuess(site, key, v.Admit, v.State.String(), v.Estimate)
		if v.Probe {
			p.rt.obs.Emit(obs.KPolicyProbe, p.id, a.id, ids.NoInterval, int64(site))
		}
		if !v.Admit {
			p.rt.obs.Emit(obs.KPolicyDeny, p.id, a.id, ids.NoInterval, int64(site))
			if verdict, decided := p.awaitVerdict(a, c.WaitBudget()); decided {
				// The pessimistic result is logged exactly like a
				// speculative one — but no interval references this log
				// index, so the entry can never be a rollback target.
				p.rt.obs.SiteVerdict(site, verdict)
				return p.logged(entry{kind: entryGuess, aid: a.id, ok: verdict}).ok
			}
			p.rt.obs.SiteWaitTimeout(site)
			p.rt.obs.Emit(obs.KPolicyWaitTimeout, p.id, a.id, ids.NoInterval, int64(site))
			// Budget exhausted with a unresolved: speculate after all.
		}
	}
	out, err := p.rt.tr.Guess(p.id, a.id, p.logBase+len(p.log))
	if err != nil {
		p.trackerErr(err)
	}
	switch {
	case c == nil:
	case out.Interval.Valid():
		// Attribute the eventual verdict back to this site so the
		// estimator learns from it (engine-owned verdict sink).
		c.NoteGuess(site, a.id)
	default:
		// Short-circuit on an already-resolved AID: the verdict is known
		// now — credit the estimator directly.
		p.rt.obs.SiteVerdict(site, out.Result)
	}
	return p.logged(entry{kind: entryGuess, aid: a.id, ok: out.Result}).ok
}

// awaitVerdict blocks until assumption a resolves terminally, returning
// its verdict with decided=true. decided=false means the caller should
// fall back to speculating, as always-on would: the wait budget expired
// (budget >= 0) or the runtime shut down mid-wait. It logs nothing itself.
func (p *Proc) awaitVerdict(a AID, budget time.Duration) (verdict, decided bool) {
	st := p.rt.tr.Status(a.id)
	if !st.Terminal() {
		w := wait{aid: a.id}
		if budget >= 0 {
			w.deadline = time.Now().Add(budget)
		}
		p.block(w)
		p.checkPending() // nothing logged yet: unwinding here is safe
		st = p.rt.tr.Status(a.id)
	}
	return st == tracker.Affirmed, st.Terminal()
}

// Affirm asserts that assumption a is correct (Section 5.2). It returns
// ErrConflict if a was already denied.
func (p *Proc) Affirm(a AID) error {
	return p.resolve(entryAffirm, a, p.rt.tr.Affirm)
}

// Deny asserts that assumption a is incorrect (Section 5.3): every
// computation dependent on it rolls back. It returns ErrConflict if a was
// already affirmed.
func (p *Proc) Deny(a AID) error {
	return p.resolve(entryDeny, a, p.rt.tr.Deny)
}

// FreeOf asserts that the current computation is not, and never will be,
// dependent on a (Section 5.4): it affirms a if so, and denies a —
// rolling the violating computation back — if not.
func (p *Proc) FreeOf(a AID) error {
	return p.resolve(entryFreeOf, a, p.rt.tr.FreeOf)
}

func (p *Proc) resolve(kind entryKind, a AID, op func(ids.Proc, ids.AID) error) error {
	e := p.replayed(kind, a.id)
	if e == nil {
		err := op(p.id, a.id)
		if err != nil && err != tracker.ErrConflict {
			p.trackerErr(err)
		}
		e = p.logged(entry{kind: kind, aid: a.id, ok: err == nil})
	}
	if !e.ok {
		return ErrConflict
	}
	return nil
}

// Send transmits payload to the named process. The message carries the
// sender's current assumption tags (§3); if the sender's speculation is
// later denied the message is discarded as an orphan at the receiver.
//
// Under fault injection a send may fail with ErrDelivery: the message was
// discarded by the (simulated) transport and the send had no effect. The
// outcome is recorded in the replay log, so a replayed send reproduces
// the original verdict without consulting the fault plan again.
func (p *Proc) Send(to string, payload any) error {
	e := p.replayed(entrySend, ids.NoAID)
	if e == nil {
		e = p.logged(entry{kind: entrySend, ok: p.send(to, payload)})
	}
	if !e.ok {
		return ErrDelivery
	}
	return nil
}

// send is the live half of Send; it reports whether the message left.
func (p *Proc) send(to string, payload any) bool {
	tags, err := p.rt.tr.Tag(p.id)
	if err != nil {
		p.trackerErr(err)
	}
	if err := p.rt.route(p, to, p.rt.seq.Add(1), payload, tags); err != nil {
		if !errors.Is(err, ErrDelivery) {
			p.fatal(err)
		}
		// An injected drop, or a lost peer on the wire: the send had no
		// effect and the verdict is logged, so replay reproduces it
		// without consulting the plan or touching the wire.
		return false
	}
	return true
}

// RetryPolicy configures SendRetry.
type RetryPolicy struct {
	// Attempts is the total number of tries (values below 1 mean 1).
	Attempts int
	// Backoff is the pause before the i-th retry, scaled linearly
	// (i × Backoff). Zero retries immediately. Backoff sleeps are
	// skipped under replay — the logged verdicts replay instantly.
	Backoff time.Duration
}

// SendRetry sends with retries: retryable delivery failures
// (ErrDelivery) are re-attempted per pol; any other error — and success
// — returns immediately. Each attempt is an independent logged Send, so
// the whole sequence replays deterministically. It returns the last
// attempt's error, so errors.Is(err, ErrDelivery) identifies exhaustion.
func (p *Proc) SendRetry(to string, payload any, pol RetryPolicy) error {
	attempts := pol.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 && pol.Backoff > 0 && !p.replaying() {
			time.Sleep(time.Duration(i) * pol.Backoff)
		}
		err = p.Send(to, payload)
		if !errors.Is(err, ErrDelivery) {
			return err
		}
	}
	return err
}

// Recv blocks until a message is delivered. Receiving a message tagged
// with unresolved assumptions implicitly guesses them (§3): the process
// becomes dependent, and is rolled back to this receive if any is denied.
// Messages whose assumptions were already denied are silently discarded.
func (p *Proc) Recv() (Msg, error) { return p.receive(wait{}) }

// RecvMatch is a selective receive: it delivers the oldest queued message
// whose payload satisfies pred (nil matches anything), leaving other
// messages queued and — crucially — not becoming dependent on their
// assumption tags. Protocol layers use this to keep verification
// processes causally clean (a process only inherits the speculation of
// messages it actually consumes).
func (p *Proc) RecvMatch(pred func(payload any) bool) (Msg, error) {
	return p.receive(wait{pred: pred})
}

// RecvTimeout is Recv with a deadline: it delivers the oldest queued
// message, or returns ErrTimeout once d elapses with nothing deliverable.
// The verdict — message or timeout — is recorded in the replay log, so a
// replayed receive reproduces the original outcome without consulting the
// clock: bodies may branch on ErrTimeout and stay piecewise
// deterministic.
func (p *Proc) RecvTimeout(d time.Duration) (Msg, error) {
	return p.receive(wait{deadline: time.Now().Add(d)})
}

// RecvSettled is the pessimistic receive: it delivers the oldest queued
// message whose assumption tags have fully settled (every transitive
// dependency definitively affirmed), discarding orphans, and blocks while
// only speculative messages are queued. A process that consumes messages
// exclusively through RecvSettled never becomes speculative itself — the
// building block for pessimistic servers that serve only committed
// requests.
func (p *Proc) RecvSettled() (Msg, error) { return p.receive(wait{mode: scanSettled}) }

// receive is the one receive behind Recv, RecvMatch, RecvTimeout and
// RecvSettled. Its logged decision is "which message, or a timeout":
// deliver the oldest message deliverable under w.mode and w.pred —
// becoming dependent on its tags — or, with a deadline, give up with
// ErrTimeout once it passes and nothing is deliverable. Shutdown is not a
// decision and is never logged.
func (p *Proc) receive(w wait) (Msg, error) {
	if e := p.replayed(entryRecv, ids.NoAID); e != nil {
		if e.ok {
			return Msg{From: e.msg.from, Payload: e.msg.payload}, nil
		}
		if w.deadline.IsZero() {
			p.fatal(fmt.Errorf("%w: replayed a receive timeout, got a receive without a deadline", ErrNondeterministic))
		}
		return Msg{}, ErrTimeout
	}
	for {
		p.checkPending()
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return Msg{}, ErrShutdown
		}
		deliver, drop := p.scanQueueLocked(w.mode, w.pred)
		if drop >= 0 {
			p.queue.removeAt(drop)
			p.mu.Unlock()
			p.rt.bump()
			continue
		}
		var m *rmsg
		if deliver >= 0 {
			m = p.queue.removeAt(deliver)
		}
		p.mu.Unlock()
		if m != nil {
			// For settled tags Deliver is a no-op on the dependency state
			// but is kept for accounting symmetry.
			out, err := p.rt.tr.Deliver(p.id, m.tags, p.logBase+len(p.log))
			if err != nil {
				// A rollback landed between our pending check and the
				// delivery: the popped message belongs to the doomed
				// continuation's future — put it back before unwinding.
				if errors.Is(err, tracker.ErrRolledBack) {
					p.mu.Lock()
					p.queue.pushFront(m)
					p.mu.Unlock()
				}
				p.trackerErr(err)
			}
			if out.Orphan {
				p.rt.bump()
				continue
			}
			p.logged(entry{kind: entryRecv, ok: true, msg: m, iv: out.Interval})
			return Msg{From: m.from, Payload: m.payload}, nil
		}
		if w.expired() {
			// The timeout is itself a logged nondeterministic event.
			p.logged(entry{kind: entryRecv})
			return Msg{}, ErrTimeout
		}
		// Nothing deliverable: block until something arrives, settles,
		// resolves or expires.
		p.block(w)
	}
}

// block is the one blocking wait: it parks the process goroutine until
// what w waits for is ready, w's deadline passes, a rollback is pending
// or the runtime shuts down — the caller re-examines which. setPhase
// registers the process with the resolution watcher BEFORE the first
// predicate check: the watcher wakes only registered waiters, and any
// resolution that commits after registration either broadcasts our cond
// or is already visible to readyLocked's fresh classification.
func (p *Proc) block(w wait) {
	var timer *time.Timer
	if !w.deadline.IsZero() {
		// The timer's only job is to wake the loop so it observes expiry.
		timer = time.AfterFunc(time.Until(w.deadline), p.wake)
	}
	p.setPhase(stateBlocked, w)
	p.mu.Lock()
	for !p.closed && !p.rt.tr.PendingRollback(p.id) && !w.expired() && !p.readyLocked(&w, w.mode) {
		p.cond.Wait()
	}
	p.mu.Unlock()
	if timer != nil {
		timer.Stop()
	}
	p.setPhase(stateRunning, wait{})
}

// Outcome reports an assumption's resolution as observed now: resolved is
// true once a is definitively affirmed or denied, and affirmed carries
// the verdict. The read is recorded in the replay log, so bodies may
// branch on it deterministically.
func (p *Proc) Outcome(a AID) (resolved, affirmed bool) {
	e := p.replayed(entryOutcome, a.id)
	if e == nil {
		st := p.rt.tr.Status(a.id)
		live := entry{kind: entryOutcome, aid: a.id, ok: st.Terminal()}
		if st == tracker.Affirmed {
			live.val = 1
		}
		e = p.logged(live)
	}
	return e.ok, e.val != 0
}

// Effect registers an externally visible action. commit runs when the
// current speculation is confirmed (immediately if the process is
// definite); abort runs if it is rolled back. Neither callback may call
// Proc methods.
func (p *Proc) Effect(commit, abort func()) {
	if p.replayed(entryEffect, ids.NoAID) != nil {
		return
	}
	if err := p.rt.tr.AttachEffect(p.id, commit, abort); err != nil {
		p.trackerErr(err)
	}
	p.logged(entry{kind: entryEffect})
}

// Printf formats to the runtime's output as a buffered effect: the text
// appears only when the current speculation is confirmed.
func (p *Proc) Printf(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	p.Effect(func() { p.rt.write(s) }, nil)
}

// Rand returns a deterministic pseudo-random int63, stable across replay.
func (p *Proc) Rand() int64 {
	e := p.replayed(entryRand, ids.NoAID)
	if e == nil {
		if p.rng == nil {
			p.rng = rand.New(rand.NewSource(int64(p.id)))
		}
		e = p.logged(entry{kind: entryRand, val: p.rng.Int63()})
	}
	return e.val
}

// Definite reports whether the process currently has no unsettled
// speculation.
func (p *Proc) Definite() bool {
	p.checkPending()
	return p.rt.tr.Definite(p.id)
}

// Checkpoint records state as a recovery point in the replay log: a
// later rollback or crash recovery whose target lies after this entry
// restores from it — the next attempt begins with Restored returning
// state and replays only the log suffix recorded after the checkpoint —
// instead of re-executing the body from the top. Checkpoints recorded
// after a rollback's target are truncated with the rest of the doomed
// suffix, exactly like any other logged event.
//
// The state-capture contract: state must be a self-contained snapshot —
// own every byte it references (deep-copy anything shared or mutated
// later), and together with the replayed suffix it must reconstruct
// exactly what full re-execution would. A body that calls Checkpoint
// must check Restored at its top; hopevet's escape pass flags
// checkpointed state that aliases memory declared outside the body.
func (p *Proc) Checkpoint(state any) {
	// Lockstep: where the live run checkpointed, the replayed run consumes
	// the entry at the same point. The recorded state stays authoritative;
	// the argument is discarded.
	if p.replayed(entryCheckpoint, ids.NoAID) == nil {
		p.rt.obs.Emit(obs.KCheckpoint, p.id, ids.NoAID, ids.NoInterval, checkpointSize(p.rt.obs, state))
		p.logged(entry{kind: entryCheckpoint, state: state})
	}
	p.lastCp = p.replay
}

// checkpointSize approximates a checkpoint's footprint for the obs
// counters (bytes of the rendered state). Skipped when no observer is
// attached — rendering arbitrary state is not free.
func checkpointSize(o *obs.Observer, state any) int64 {
	if o == nil {
		return 0
	}
	return int64(len(fmt.Sprintf("%v", state)))
}

// Restored reports whether this attempt resumed from a checkpoint and,
// if so, returns the checkpointed state. It must be called at the top
// of the body, before any logged operation: a restored attempt's replay
// cursor sits just past the checkpoint, so the body must jump to the
// matching point in its control flow before touching the runtime (a
// mismatch fails loudly with ErrNondeterministic). The returned state is
// the recorded snapshot itself — treat it as the body's new owned state.
// Consuming it clears the flag.
func (p *Proc) Restored() (any, bool) {
	st, ok := p.restoredState, p.hasRestored
	p.restoredState, p.hasRestored = nil, false
	return st, ok
}

// checkpointDue reports whether an automatic checkpoint should be taken
// at this step boundary (engine.Loop consults it between steps). During
// replay the log dictates the answer — live and replayed executions
// must checkpoint at identical points — and live execution checkpoints
// once the configured number of events accumulates past the last
// checkpoint or compaction.
func (p *Proc) checkpointDue() bool {
	if p.replaying() {
		return p.log[p.replay].kind == entryCheckpoint
	}
	return p.rt.cpEvery > 0 && len(p.log)-p.lastCp >= p.rt.cpEvery
}

// compact discards the settled replay-log prefix. Preconditions (enforced
// by Loop, the only caller): the process is definite — no live intervals,
// so no rollback can target the discarded history — and the caller is the
// process goroutine itself at a point where it can re-derive its state
// without replay (Loop snapshots user state first).
func (p *Proc) compact() {
	p.mu.Lock()
	p.logBase += len(p.log)
	p.log = p.log[:0]
	p.replay = 0
	p.replayStart = 0
	p.lastCp = 0
	p.mu.Unlock()
}

// Compactable reports whether the process may compact right now: it is
// definite with no pending rollback, and not mid-replay — compacting
// during replay would discard the un-replayed suffix and re-execute
// operations (sends, resolutions) that already happened. Called from
// the process goroutine; the answer cannot be invalidated concurrently
// because speculation enters only through this process's own calls.
// Definite is tested before PendingRollback for the reason given in park:
// the other order could compact away a log a pending target points into.
func (p *Proc) compactable() bool {
	return !p.replaying() && p.rt.tr.Definite(p.id) && !p.rt.tr.PendingRollback(p.id)
}

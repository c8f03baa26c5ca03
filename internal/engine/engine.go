// Package engine is the concurrent HOPE runtime: the modern equivalent of
// the paper's PVM prototype (§7). Processes are goroutines; messages are
// tagged with the sender's assumption set and implicitly guessed on
// receive; rollback is implemented by piecewise-deterministic replay.
//
// # Rollback by replay
//
// Go cannot checkpoint a goroutine's stack, so the engine uses the
// standard piecewise-deterministic (PWD) technique from the optimistic
// recovery literature the paper builds on [Strom & Yemini 1985]: every
// nondeterministic event a process observes — guess results, received
// messages, fresh AIDs, random numbers — flows through its *Proc handle
// and is recorded in a replay log. To roll back, the engine interrupts the
// goroutine (a panic with a private sentinel, recovered at the top of the
// process loop), truncates the log at the rolled-back interval's start,
// and re-runs the body: the surviving prefix replays from the log without
// re-executing sends or effects, and the denied guess then returns false
// live. The process body must therefore be deterministic given the
// sequence of Proc results, and must keep all mutable state local to one
// body invocation.
//
// # Effects
//
// Externally visible actions must be wrapped in Proc.Effect (or use
// Proc.Printf): they are buffered on the current interval and released
// when it finalizes, or aborted when it rolls back. This is what makes
// speculative output safe.
package engine

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hope/internal/fault"
	"hope/internal/ids"
	"hope/internal/obs"
	"hope/internal/policy"
	"hope/internal/site"
	"hope/internal/tracker"
)

// ErrShutdown is returned by Recv when the runtime is shut down.
var ErrShutdown = errors.New("hope: runtime shut down")

// ErrTimeout is returned by RecvTimeout when the deadline passes with no
// deliverable message. It is retryable: the process may receive again.
var ErrTimeout = errors.New("hope: receive timed out")

// ErrDelivery is returned by Send when the message was discarded by a
// transport fault (fault-injection Drop). It is retryable — the send had
// no effect and may simply be re-issued (see SendRetry).
var ErrDelivery = errors.New("hope: message delivery failed")

// ErrNondeterministic reports that a process body diverged from its
// replay log during rollback re-execution, violating the piecewise
// determinism contract.
var ErrNondeterministic = errors.New("hope: process body is not deterministic under replay")

// ErrDuplicateProc reports a Spawn with an already-used name.
var ErrDuplicateProc = errors.New("hope: duplicate process name")

// ErrUnknownDest reports a destination with no process: Wait's report
// of a name that was sent to but never spawned, and the wire layer's of
// a name its placement cannot route. A send to a name with no process
// waits in that name's mailbox until Spawn adopts it.
var ErrUnknownDest = errors.New("hope: unknown destination process")

// ErrConflict re-exports the tracker's §5.2 conflicting-resolution error.
var ErrConflict = tracker.ErrConflict

// LatencyFunc models network latency: the one-way delay for a message
// from process `from` to process `to`. A nil LatencyFunc (or zero return)
// delivers synchronously.
type LatencyFunc func(from, to string) time.Duration

// Option configures a Runtime.
type Option func(*Runtime)

// WithOutput directs committed Printf output to w (default os.Stdout).
func WithOutput(w io.Writer) Option { return func(r *Runtime) { r.out = w } }

// WithLatency installs a message latency model.
func WithLatency(f LatencyFunc) Option { return func(r *Runtime) { r.latency = f } }

// WithObserver attaches an observability sink (internal/obs): the
// runtime and tracker emit speculation-lifecycle events and metrics
// through it. A nil observer (the default) is the no-op sink — hook
// points cost one nil check each. Observation is strictly runtime-side:
// no engine decision ever reads observer state, so attaching one cannot
// perturb piecewise-deterministic replay.
func WithObserver(o *obs.Observer) Option { return func(r *Runtime) { r.obs = o } }

// WithShards sets the shard count of the dependency tracker and the
// delivery-scheduler pool. Values are rounded up to a power of two and
// clamped to [1, tracker.MaxShards]; n <= 0 (the default) selects the
// next power of two >= GOMAXPROCS. One shard reproduces the old
// single-lock, single-scheduler configuration; the differential tests
// pin it to check that shard count never changes observable behavior.
func WithShards(n int) Option { return func(r *Runtime) { r.shardCfg = n } }

// WithSpeculation attaches a speculation admission controller
// (internal/policy): each live explicit Guess first asks the controller
// whether speculating at its call site is worth it. A denied admission
// waits — bounded by the controller's WaitBudget — for the assumption's
// real verdict and returns it, exactly as if the guess had speculated
// and immediately resolved; whichever way the guess returns, the
// verdict is a replay-log entry, so rollback and crash recovery
// reproduce the controller's decisions byte-for-byte without consulting
// it. A nil controller (the default) is the always-on policy and
// preserves the exact pre-policy guess path. Implicit guesses (tagged
// receives) are never subject to admission — only explicit Guess sites.
func WithSpeculation(c *policy.Controller) Option { return func(r *Runtime) { r.spec = c } }

// WithFaults attaches a deterministic fault-injection plan
// (internal/fault): processes crash and restart by replay, messages are
// dropped (surfacing to senders as ErrDelivery), duplicated (suppressed
// by the per-link filter), or delayed, and resolutions stall. A nil plan
// (the default) injects nothing. A runtime decides the faults of the
// processes it hosts — their crashes, stalls and every message they
// send, local or remote — so runtimes hosting disjoint processes may
// share a plan.
func WithFaults(p *fault.Plan) Option { return func(r *Runtime) { r.faults = p } }

// WithCheckpointEvery arms automatic checkpointing for Loop processes:
// once a process accumulates k logged events past its last checkpoint
// (or compaction) while speculation keeps the log alive, the next step
// boundary records a checkpoint of the loop state. Rollback and crash
// recovery then restore from the newest checkpoint preceding the
// target and replay only the suffix, bounding re-execution cost at
// roughly k events regardless of history length. k <= 0 (the default)
// disables automatic checkpoints; explicit Proc.Checkpoint calls work
// either way. Checkpoints are replay-log entries, so toggling this
// option never changes committed output — only recovery cost.
func WithCheckpointEvery(k int) Option { return func(r *Runtime) { r.cpEvery = k } }

// Runtime hosts one distributed HOPE program: a set of named processes,
// their mailboxes, and the shared dependency tracker.
type Runtime struct {
	tr      *tracker.Tracker
	out     io.Writer
	outMu   sync.Mutex
	latency LatencyFunc
	obs     *obs.Observer
	faults  *fault.Plan

	mu       sync.Mutex
	cond     *sync.Cond
	procs    map[string]*Proc
	byID     map[ids.Proc]*Proc
	inflight int
	closed   bool
	// settledWaiters are the processes whose progress hangs on resolution
	// state — parked, or blocked in RecvSettled or a pessimistic Guess
	// (resolutionWaiter). The resolution watcher wakes exactly these
	// instead of locking every process on every resolution (guarded by
	// mu; written by setPhase).
	settledWaiters map[*Proc]struct{}

	// scheds is the delivery-scheduler pool: one scheduler (goroutine +
	// due-time min-heap) per shard, selected by sender-name hash. A
	// link's deliveries all hash to the sender's scheduler, so per-link
	// FIFO needs no cross-scheduler coordination. shardCfg is the
	// WithShards request (0 = default); the pool size always equals the
	// tracker's shard count.
	scheds    []*sched
	schedMask uint64
	shardCfg  int

	// cpEvery is the automatic-checkpoint cadence for Loop processes
	// (0 = off); see WithCheckpointEvery.
	cpEvery int

	// remote is the cross-process router consulted for destinations with
	// no local process (nil = such a name's messages wait for its Spawn);
	// aidBase is the node's AID namespace prefix. See remote.go.
	remote  RemoteRouter
	aidBase uint64

	// spec is the speculation admission controller (nil = always-on;
	// see WithSpeculation). When armed, the engine owns the tracker's
	// verdict sink — crediting each guess site's verdict (creditSite) —
	// and userSink holds the chained SetVerdictSink consumer (the wire
	// layer's broadcast).
	spec     *policy.Controller
	userSink atomic.Pointer[func(ids.AID, bool)]
	// pcSites caches Guess-caller program counters → canonical site
	// identity, so the per-guess runtime.Caller cost is paid once per
	// static call site.
	pcSites sync.Map

	seq atomic.Uint64
}

// linkKey identifies one directed sender→receiver channel.
type linkKey struct{ from, to string }

// New creates an empty runtime.
func New(opts ...Option) *Runtime {
	r := &Runtime{
		out:            os.Stdout,
		procs:          make(map[string]*Proc),
		byID:           make(map[ids.Proc]*Proc),
		settledWaiters: make(map[*Proc]struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	for _, o := range opts {
		o(r)
	}
	// Options are applied before the tracker exists so WithShards can
	// size it; the scheduler pool mirrors the tracker's shard count.
	r.tr = tracker.New(tracker.WithShards(r.shardCfg))
	if r.aidBase != 0 {
		r.tr.SetAIDBase(r.aidBase)
	}
	r.scheds = make([]*sched, r.tr.Shards())
	for i := range r.scheds {
		s := &sched{idx: i}
		s.init()
		r.scheds[i] = s
	}
	r.schedMask = uint64(len(r.scheds) - 1)
	if r.spec != nil {
		// The engine owns the tracker's verdict sink: attribute each
		// terminal resolution back to the guess sites that speculated on
		// it, then forward to the chained consumer (the wire layer's
		// broadcast, installed via SetVerdictSink).
		r.tr.SetVerdictSink(func(x ids.AID, affirmed bool) {
			for _, h := range r.spec.TakeGuessed(x) {
				r.creditSite(h, affirmed)
			}
			if fn := r.userSink.Load(); fn != nil {
				(*fn)(x, affirmed)
			}
		})
	}
	r.tr.SetObserver(r.obs)
	if r.faults != nil {
		// Resolution stalls run in the resolving process's goroutine,
		// before the tracker's critical section: the speculation window
		// widens without any lock held.
		r.tr.SetStallHook(func(id ids.Proc, op string) {
			r.mu.Lock()
			p := r.byID[id]
			r.mu.Unlock()
			if p == nil {
				return
			}
			if d := r.faults.StallNow(p.name); d > 0 {
				r.obs.Emit(obs.KFaultStall, id, ids.NoAID, ids.NoInterval, int64(d))
				time.Sleep(d)
			}
		})
	}
	// Wake pessimistic waiters (RecvSettled, admission-denied Guess) and
	// parked bodies whenever any assumption resolves or interval settles:
	// their progress depends on global resolution state, not just their
	// own queue. Only the registered settledWaiters are woken — a
	// resolution does not serialize against every process in the system.
	r.tr.SetResolutionWatcher(func() {
		// Most resolutions find a handful of waiters (often the one
		// sink): collect them on the stack, spilling to the heap only
		// past the array.
		var few [8]*Proc
		waiters := few[:0]
		r.mu.Lock()
		for p := range r.settledWaiters {
			waiters = append(waiters, p)
		}
		r.cond.Broadcast()
		r.mu.Unlock()
		for _, p := range waiters {
			p.mu.Lock()
			if resolutionWaiter(p.state, &p.wait) {
				p.cond.Broadcast()
			}
			p.mu.Unlock()
		}
	})
	return r
}

// creditSite credits one verdict to guess site h: the controller's
// estimator learns it, and the observer (if any) counts it. Every
// per-site verdict passes through here.
func (r *Runtime) creditSite(h uint64, affirmed bool) {
	r.spec.Observe(h, affirmed)
	r.obs.SiteVerdict(h, affirmed)
}

// siteID is one resolved Guess call site, cached per program counter.
type siteID struct {
	h   uint64
	key string
}

// guessSite resolves the canonical site identity of the Guess call two
// frames up — the same internal/site fold the vet inventory and the
// fault plan use, so static analysis, fault schedules, and the admission
// controller all agree on what "this guess site" means. The
// runtime.Caller walk runs once per static call site; subsequent guesses
// hit the PC cache.
func (r *Runtime) guessSite() (uint64, string) {
	var pcs [1]uintptr
	// Skip runtime.Callers, guessSite, and Guess: frame 3 is the body's
	// Guess call. Guess must call this directly to keep the depth fixed.
	if runtime.Callers(3, pcs[:]) == 0 {
		return site.Hash("unknown:0"), "unknown:0"
	}
	if v, ok := r.pcSites.Load(pcs[0]); ok {
		s := v.(siteID)
		return s.h, s.key
	}
	frame, _ := runtime.CallersFrames(pcs[:]).Next()
	key := site.Key(frame.File, frame.Line)
	h := site.Hash(key)
	r.pcSites.Store(pcs[0], siteID{h: h, key: key})
	return h, key
}

// Shards reports the tracker/scheduler shard count in effect.
func (r *Runtime) Shards() int { return r.tr.Shards() }

// Observer returns the sink attached with WithObserver, nil when none:
// the runtime never builds one of its own.
func (r *Runtime) Observer() *obs.Observer { return r.obs }

// Spawn starts a named process executing body in a goroutine of its own
// (see runProc). The body must follow the package's piecewise-determinism
// contract. Messages sent to the name before Spawn wait in its mailbox,
// in arrival order.
func (r *Runtime) Spawn(name string, body func(*Proc) error) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrShutdown
	}
	p, ok := r.procs[name]
	if !ok {
		p = r.addProcLocked(name)
	} else if p.state != stateUnspawned {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDuplicateProc, name)
	}
	p.mu.Lock()
	p.body, p.err, p.state = body, nil, stateRunning
	p.id = r.tr.Register((*procHooks)(p))
	p.mu.Unlock()
	r.obs.RegisterProc(p.id, name)
	r.byID[p.id] = p
	r.mu.Unlock()

	runProc(p.loop)
	return nil
}

// addProcLocked adds a not-yet-spawned entry for name: a mailbox that
// holds what is sent to the name until Spawn adopts it, with no tracker
// id and an error Wait reports unless Spawn comes. Caller holds r.mu.
func (r *Runtime) addProcLocked(name string) *Proc {
	p := &Proc{rt: r, name: name, err: ErrUnknownDest}
	p.cond.L = &p.mu
	r.procs[name] = p
	return p
}

// Process goroutines are reused. A goroutine whose process has finished
// waits for the next Spawn, of any runtime, instead of exiting, so a new
// process starts on a stack already grown through the engine's call
// depth: a Spawn allocates, copies and faults in no stack. At most
// maxIdleProcs goroutines wait. A waiting goroutine holds nothing of the
// process it ran (TestFinishedRuntimeReleased).
const maxIdleProcs = 64

var (
	procWork  = make(chan func()) // unbuffered: a send lands only on a waiting goroutine
	idleProcs atomic.Int32
)

// runProc runs f on a waiting process goroutine, or on a new one.
func runProc(f func()) {
	select {
	case procWork <- f:
	default:
		go procWorker(f)
	}
}

// procWorker runs f, then each process handed to it while it waits.
func procWorker(f func()) {
	for {
		f()
		if idleProcs.Add(1) > maxIdleProcs {
			idleProcs.Add(-1)
			return
		}
		f = <-procWork
		idleProcs.Add(-1)
	}
}

// procHooks adapts *Proc to tracker.Hooks without exporting the method on
// the public Proc API surface.
type procHooks Proc

// NotifyRollback implements tracker.Hooks: the target itself lives in the
// tracker (merged under its lock); this hook only wakes the process.
func (h *procHooks) NotifyRollback() { (*Proc)(h).wake() }

// bump wakes Quiesce/Wait evaluators.
func (r *Runtime) bump() {
	r.mu.Lock()
	r.cond.Broadcast()
	r.mu.Unlock()
}

// route delivers src's message — seq, payload and tags — to the named
// destination, applying the latency model; it builds the engine's rmsg
// only for a local destination, and carries it by value. It is the one
// place a message fault is decided: with a plan attached, each live
// send draws drop, delay and dup once, before the destination is known
// to be local or remote, so a message that crosses the wire is faulted
// exactly like one that does not. A drop returns ErrDelivery; the
// caller logs it, so replay never asks the plan again.
//
// Channels are FIFO per directed (from, to) link, as the paper's model
// (and the replay log) requires: with a latency model installed, a
// message's delivery waits for its link predecessor even if its own
// timer fires first. Delayed deliveries are drained by one scheduler
// goroutine off a min-heap of due times (see sched.go) instead of one
// goroutine + timer per message.
func (r *Runtime) route(src *Proc, to string, seq uint64, payload any, tags []ids.AID) error {
	from := src.name
	var extra time.Duration
	dup := false
	if f := r.faults; f != nil {
		if f.DropNow(from, to) {
			r.obs.Emit(obs.KFaultDrop, src.id, ids.NoAID, ids.NoInterval, 0)
			return ErrDelivery
		}
		if extra = f.DelayNow(from, to); extra > 0 {
			r.obs.Emit(obs.KFaultDelay, src.id, ids.NoAID, ids.NoInterval, int64(extra))
		}
		if dup = f.DupNow(from, to); dup {
			r.obs.Emit(obs.KFaultDup, src.id, ids.NoAID, ids.NoInterval, 0)
		}
	}
	r.mu.Lock()
	dst, ok := r.procs[to]
	if !ok {
		if remote := r.remote; remote != nil {
			r.mu.Unlock()
			// Cross-process destination: hand off to the wire layer, which
			// holds the link for the injected delay. Its ErrDelivery (a lost
			// peer) surfaces from Send like an injected drop.
			m := WireMsg{From: from, To: to, Seq: seq, Tags: tags, Payload: payload, Delay: extra}
			if err := remote(m); err != nil || !dup {
				return err
			}
			// The copy shares the original's Seq, so the receiver's per-link
			// filter suppresses it; like the local copy it adds no wait of
			// its own. It is best effort: the original already left.
			m.Delay = 0
			_ = remote(m)
			return nil
		}
		dst = r.addProcLocked(to)
	}
	msg := rmsg{message: message{seq: seq, from: from, payload: payload, tags: tags}}
	if r.latency == nil && r.faults == nil {
		// Synchronous delivery in the sender's goroutine is trivially
		// FIFO per link.
		r.mu.Unlock()
		dst.enqueue(&msg)
		return nil
	}
	// With a fault plan attached every delivery goes through the
	// scheduler, even at zero latency: delay and duplicate injections
	// then share the per-link FIFO with clean deliveries, so injected
	// reordering can never violate link order — only stretch it.
	var delay time.Duration
	if r.latency != nil {
		delay = r.latency(from, to)
	}
	n := 1
	if dup {
		n = 2
	}
	r.inflight += n
	r.mu.Unlock()

	due := time.Now().Add(delay + extra)
	key := linkKey{from: from, to: to}
	sc := r.schedFor(from)
	sc.schedule(r, &delivery{due: due, key: key, msg: msg, dst: dst})
	if dup {
		// The copy shares the original's seq, so the receiver's
		// per-link duplicate filter suppresses it at enqueue. It is
		// scheduled after the original on the same link, so it can
		// never overtake it.
		sc.schedule(r, &delivery{due: due, key: key, msg: msg, dst: dst})
	}
	return nil
}

// schedFor picks the delivery scheduler owning a sender's links
// (FNV-1a over the name). Every link of one sender lands on one
// scheduler, which is what keeps per-link FIFO a local property.
func (r *Runtime) schedFor(from string) *sched {
	h := uint64(14695981039346656037)
	for i := 0; i < len(from); i++ {
		h ^= uint64(from[i])
		h *= 1099511628211
	}
	return r.scheds[h&r.schedMask]
}

// deliverNow hands a scheduled message to its destination; called from
// the scheduler goroutine. Inflight is decremented only after the
// enqueue is visible, so the stability scan never observes "no inflight,
// empty queue" for a message in this window.
func (r *Runtime) deliverNow(d *delivery) {
	d.dst.enqueue(&d.msg)
	r.mu.Lock()
	r.inflight--
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Wait blocks until every spawned process has finished (body returned and
// all of its speculation settled). It returns the processes' errors, if
// any, sorted by process name so the same failure reads the same from
// run to run; a name that was sent to but never spawned reports
// ErrUnknownDest. Programs whose processes never halt should use Quiesce
// instead.
func (r *Runtime) Wait() []error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		alldone := true
		for _, p := range r.procs {
			if s := p.phase(); s != stateDone && s != stateUnspawned {
				alldone = false
				break
			}
		}
		if alldone {
			var failed []string
			for name, p := range r.procs {
				if p.Err() != nil {
					failed = append(failed, name)
				}
			}
			sort.Strings(failed)
			var errs []error
			for _, name := range failed {
				errs = append(errs, fmt.Errorf("%s: %w", name, r.procs[name].Err()))
			}
			return errs
		}
		r.cond.Wait()
	}
}

// Quiesce blocks until the system is stable: no process is running or
// replaying, no message is in flight, no rollback is pending, and no
// blocked process has a deliverable (non-orphaned) message queued. It
// returns immediately-after-stability; processes may still be parked
// speculative or blocked in Recv.
func (r *Runtime) Quiesce() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for !r.stableLocked() {
		r.cond.Wait()
	}
}

// stableLocked evaluates the quiescence predicate. Caller holds r.mu;
// lock order is r.mu → p.mu → tracker shard locks.
func (r *Runtime) stableLocked() bool {
	if r.inflight > 0 {
		return false
	}
	for _, p := range r.procs {
		switch p.phase() {
		case stateRunning:
			return false
		case stateBlocked, stateParked:
			if p.hasWork() {
				return false
			}
		}
	}
	return true
}

// Shutdown stops the runtime: blocked receives return ErrShutdown,
// parked processes exit, and the messages held for names never spawned
// are dropped. Safe to call more than once.
func (r *Runtime) Shutdown() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	procs := make([]*Proc, 0, len(r.procs))
	for _, p := range r.procs {
		procs = append(procs, p)
	}
	r.mu.Unlock()
	for _, p := range procs {
		p.mu.Lock()
		p.closed = true
		if p.state == stateUnspawned {
			p.queue = mailbox{}
		}
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	// Flush the delivery schedulers: remaining scheduled messages are
	// delivered immediately (their receivers are closed) and the
	// scheduler goroutines exit.
	for _, s := range r.scheds {
		s.close()
	}
	r.bump()
}

// DrainPolicy selects how ShutdownDrain disposes of speculation still
// outstanding when the runtime is asked to stop.
type DrainPolicy int

const (
	// DrainDenyUnresolved resolves every outstanding assumption
	// pessimistically: unresolved AIDs are system-denied, dependent
	// speculation rolls back and replays down its guess-failed paths,
	// and the sweep repeats until the tracker is fully settled. Bounded
	// drain time at the cost of discarding optimistic work.
	DrainDenyUnresolved DrainPolicy = iota + 1
	// DrainWaitSettled blocks until every process's speculation has
	// settled on its own (all assumptions resolved by the program) and
	// the system is stable. No work is discarded, but a program that
	// never resolves an assumption drains forever.
	DrainWaitSettled
)

// String names the policy.
func (d DrainPolicy) String() string {
	switch d {
	case DrainDenyUnresolved:
		return "deny-unresolved"
	case DrainWaitSettled:
		return "wait-settled"
	default:
		return "invalid"
	}
}

// ShutdownDrain is the graceful form of Shutdown: it first settles all
// outstanding speculation according to policy — so every buffered
// Printf/Effect is either released or aborted, never abandoned in limbo
// — and then shuts the runtime down. Like Wait, it assumes the program's
// processes eventually block; a body that spins forever prevents the
// drain from completing.
func (r *Runtime) ShutdownDrain(policy DrainPolicy) {
	switch policy {
	case DrainWaitSettled:
		r.mu.Lock()
		for !r.stableLocked() || !r.allDefiniteLocked() {
			r.cond.Wait()
		}
		r.mu.Unlock()
	default:
		// Each sweep can wake rolled-back processes whose replays open
		// fresh speculation (a guess-failed path may guess again), so
		// quiesce-and-sweep repeats until a sweep finds nothing.
		for {
			r.Quiesce()
			if r.tr.DenyAllUnresolved() == 0 {
				break
			}
		}
	}
	r.Shutdown()
}

// allDefiniteLocked reports whether no process holds live speculation.
// Caller holds r.mu; lock order r.mu → tracker shard locks.
func (r *Runtime) allDefiniteLocked() bool {
	for _, p := range r.procs {
		if p.state != stateUnspawned && !r.tr.Definite(p.id) {
			return false
		}
	}
	return true
}

// write emits committed output.
func (r *Runtime) write(s string) {
	r.outMu.Lock()
	defer r.outMu.Unlock()
	_, _ = io.WriteString(r.out, s)
}

var _ tracker.Hooks = (*procHooks)(nil)

// DebugString renders a point-in-time summary of every process — phase,
// queue contents classified by tag status, log position — for diagnosing
// wedged or slow systems. Intended for tests and operational debugging;
// the snapshot is not atomic across processes.
func (r *Runtime) DebugString() string {
	r.mu.Lock()
	names := make([]string, 0, len(r.procs))
	procs := make([]*Proc, 0, len(r.procs))
	for n, p := range r.procs {
		names = append(names, n)
		procs = append(procs, p)
	}
	inflight := r.inflight
	r.mu.Unlock()

	var b strings.Builder
	fmt.Fprintf(&b, "runtime: inflight=%d\n", inflight)
	for i, p := range procs {
		p.mu.Lock()
		phase, id := p.state, p.id
		qlen := p.queue.len()
		settled, spec, orphan := 0, 0, 0
		for i := 0; i < qlen; i++ {
			m := p.queue.at(i)
			switch isSettled, isOrphan := r.tr.ClassifyCached(m.tags, &m.cls); {
			case isOrphan:
				orphan++
			case isSettled:
				settled++
			default:
				spec++
			}
		}
		// A running body writes its log and cursor without p.mu; in every
		// other phase it is in block or park, or done, and must take p.mu
		// before it runs again.
		loglen, replay := "-", "-"
		if phase != stateRunning {
			loglen, replay = fmt.Sprint(p.log.len()), fmt.Sprint(p.replay)
		}
		waiting := "-"
		if phase == stateBlocked {
			waiting = p.wait.String()
		}
		p.mu.Unlock()
		fmt.Fprintf(&b, "  %-14s %-8v queue=%d (settled=%d spec=%d orphan=%d) log=%s replay=%s restarts=%d resumes=%d wait=%s pending=%v live=%d\n",
			names[i], phase, qlen, settled, spec, orphan, loglen, replay, p.Restarts(), p.Resumes(), waiting,
			r.tr.PendingRollback(id), r.tr.LiveIntervals(id))
	}
	return b.String()
}

// DebugTracker exposes the tracker's state dump (diagnostics).
func (r *Runtime) DebugTracker() string { return r.tr.DebugDump() }

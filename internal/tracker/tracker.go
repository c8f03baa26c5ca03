// Package tracker is the concurrent dependency-tracking engine of the HOPE
// runtime: the same interval/AID algebra as internal/semantics (Equations
// 1–24 of the paper), re-implemented behind sharded locks for use by many
// goroutine processes at once.
//
// Where the semantics machine owns whole process states (program counters,
// variables, mailboxes), the tracker owns only the speculation metadata:
// which intervals exist, what they depend on (IDO), who depends on each
// assumption (DOM), pending speculative denies (IHD), and the effects to
// release or abort when an interval settles. Restoring a process's control
// and data state is the runtime's job (internal/engine does it by replay);
// the tracker tells it where to restart via the RequestRollback hook.
//
// Concurrency contract, matching the paper's §7 claim that dependency
// tracking never makes a user process wait for another's progress: every
// exported method completes under short critical sections — no method
// blocks on user code or on another process. Settlement callbacks (effect
// commits/aborts, rollback requests) are invoked after all locks are
// released.
//
// # Sharding
//
// State is partitioned by identifier hash into N independent shards
// (N = next power of two >= GOMAXPROCS by default, configurable with
// WithShards, capped at MaxShards so shard sets fit a uint64 bitmask).
// Each shard owns the assumptions homed on it, the processes homed on
// it, those processes' intervals, its own RWMutex, and its own
// resolution epoch. Operations whose footprint stays inside their home
// shards — the common case — touch only those locks, so Tag/Affirm/Deny
// on disjoint assumptions never contend. Operations whose dependency
// closure crosses shards go through a two-phase settle (see
// Tracker.settleCtx in shard.go): a read-only footprint walk under the
// home locks, escalating to an ordered all-shard lock when the closure
// escapes.
//
// On top of the shard locks, each shard maintains a monotonic
// per-shard *resolution epoch*: any mutation that can change a tag
// set's classification bumps the epochs of the shards it touched, so
// callers can memoize a classification verdict together with the
// epochs of the shards its dependency walk visited and revalidate it
// with a handful of atomic loads (TagClass, ClassifyCached,
// ClassCurrent) — no locks at all on the hot path — instead of
// re-running the transitive walk on every queue scan.
package tracker

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"hope/internal/ids"
	"hope/internal/obs"
)

// Resolution is an assumption's lifecycle state (see
// semantics.Resolution; duplicated here so the runtime layers do not
// depend on the model-checking layer).
type Resolution int

const (
	// Unresolved: neither affirmed nor denied yet.
	Unresolved Resolution = iota + 1
	// Affirmed: definitively true.
	Affirmed
	// SpecAffirmed: affirmed by a still-speculative interval.
	SpecAffirmed
	// Denied: definitively false.
	Denied
)

// Terminal reports whether r is a definitive verdict. A SpecAffirmed
// assumption is not terminal: the affirming interval is still
// speculative, so the affirm can be revoked by its rollback.
func (r Resolution) Terminal() bool {
	return r == Affirmed || r == Denied
}

// String names the resolution.
func (r Resolution) String() string {
	switch r {
	case Unresolved:
		return "unresolved"
	case Affirmed:
		return "affirmed"
	case SpecAffirmed:
		return "spec-affirmed"
	case Denied:
		return "denied"
	default:
		return "invalid"
	}
}

// ErrConflict reports an affirm applied to a denied assumption or vice
// versa — the §5.2 user error.
var ErrConflict = errors.New("hope: conflicting affirm/deny on one assumption")

// ErrUnknownProc reports an operation naming an unregistered process.
var ErrUnknownProc = errors.New("hope: unknown process")

// ErrRolledBack reports that the calling process has a pending rollback:
// the operation belongs to a doomed continuation and must not take
// effect. The runtime converts this into the rollback itself. Checking
// inside the tracker's critical section — where rollback targets are
// merged — leaves no window in which a doomed continuation can create
// intervals or emit cleanly-tagged messages.
var ErrRolledBack = errors.New("hope: process has a pending rollback")

// RollbackTarget tells a process where to restart after rollback.
type RollbackTarget struct {
	// LogIndex is the replay-log index of the event that opened the
	// earliest rolled-back interval (supplied by the runtime at Guess or
	// Deliver time).
	LogIndex int
	// Implicit reports whether that event was a tagged message delivery
	// (re-execute the receive) rather than an explicit guess (resume
	// after the guess with a False result).
	Implicit bool
}

// Hooks is how the tracker calls back into the runtime. Implementations
// must be safe to call from any goroutine and must not call back into the
// tracker. Hook invocations happen outside the tracker's critical
// section.
type Hooks interface {
	// NotifyRollback tells the process a rollback target is pending for
	// it (retrievable via TakePending). It may be invoked while the
	// process is running, blocked, or parked after completion.
	NotifyRollback()
}

// The dependency sets are slices held by value: no map, no pointer to a
// set, and a removal closes the gap at once, so a walk never steps over
// a departed member. A set of AIDs that is searched — an IDO, a
// replacement — is kept sorted, because a speculative affirm merges the
// affirmer's dependencies into the IDO of every dependent and on a deep
// chain that must not cost a linear scan per member. IHD and the
// spec-affirmed list only grow (a resolution adds each member once) and
// keep the order of the resolutions that filled them.
//
// A DOM stores each process once. Equation 3 makes every interval
// inherit its enclosing interval's IDO, so one process's live IDOs are
// nested (Theorem 5.1) and the intervals of a process that depend on X
// are a suffix of its chain. X.DOM holds the first of that suffix only:
// the later ones follow from the chain. So opening an interval writes
// the DOM of the assumptions it adds, not of those it inherits, and
// discarding a chain suffix removes only the entries that point into it
// — neither grows with the depth of the chain.

type aidState struct {
	id ids.AID
	// dom holds, for each process depending on X, the earliest of its
	// live intervals that does — at most one entry per process. It holds
	// them directly (not by id): an interval lives in its process's
	// shard, and cross-shard cascades must not need a foreign shard's
	// interval map to find it. It is in the order the processes came to
	// depend on X, so cascade order is deterministic for a given
	// operation history regardless of shard count. A resolution drains
	// it for good: no interval depends on a resolved assumption.
	dom          []*intervalState
	status       Resolution
	affirmer     ids.Interval
	replacement  []ids.AID // sorted; frozen when X is spec-affirmed
	claimed      bool
	claimedBy    ids.Interval
	systemDenied bool
}

type intervalState struct {
	id       ids.Interval
	proc     ids.Proc
	logIndex int
	implicit bool
	// openedAt is the wall-clock birth of the interval, stamped only
	// when an observer is attached (it feeds the speculation-lifetime
	// histogram at settlement).
	openedAt time.Time
	ido      []ids.AID // sorted
	// idoShared marks that a message tag (Tag) shares ido's backing
	// array: the next write copies it first (dependLocked, dropDep). Set
	// under the read lock, so atomic; read and cleared under the write
	// lock.
	idoShared    atomic.Bool
	ihd          []ids.AID
	specAffirmed []ids.AID
	status       status
	// commits starts in firstCommit: most intervals release one effect.
	commits     []func()
	firstCommit [1]func()
	aborts      []func()
	// prev and next link the process's live chain, oldest first.
	prev, next *intervalState
}

// hasAID reports whether the sorted set s holds x.
func hasAID(s []ids.AID, x ids.AID) bool {
	_, ok := slices.BinarySearch(s, x)
	return ok
}

// withoutAID removes x from the sorted set s.
func withoutAID(s []ids.AID, x ids.AID) []ids.AID {
	if i, ok := slices.BinarySearch(s, x); ok {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// domIndex returns the position of p's entry in a DOM, or -1. The
// search runs from the end: the processes that came to depend on X
// last are the likeliest to be discarded or re-homed first.
func domIndex(dom []*intervalState, p ids.Proc) int {
	for i := len(dom) - 1; i >= 0; i-- {
		if dom[i].proc == p {
			return i
		}
	}
	return -1
}

type status int

const (
	speculative status = iota + 1
	finalized
	rolledBack
)

type procState struct {
	id    ids.Proc
	hooks Hooks
	// first and last end the chain of live (speculative) intervals, in
	// creation order and linked through prev/next: last is the current
	// interval (the I control variable). n counts them. A link, not a
	// slice: opening, finalizing the oldest and discarding a suffix
	// touch only the intervals concerned, whatever the depth.
	first, last *intervalState
	n           int
	// pending is the earliest unapplied rollback target for this
	// process. It is merged under the process's shard lock — inside the
	// same critical section that discards the intervals — so targets can
	// never be observed out of order with the interval state they
	// describe (Theorem 5.1 makes the minimum the correct merge). It is
	// held by value: hasPending says whether it is set.
	pending    RollbackTarget
	hasPending bool
}

func (p *procState) current() *intervalState { return p.last }

// push appends iv to the chain as the current interval.
func (p *procState) push(iv *intervalState) {
	iv.prev = p.last
	if p.last != nil {
		p.last.next = iv
	} else {
		p.first = iv
	}
	p.last = iv
	p.n++
}

// unlink takes the live interval iv out of the chain.
func (p *procState) unlink(iv *intervalState) {
	if iv.prev != nil {
		iv.prev.next = iv.next
	} else {
		p.first = iv.next
	}
	if iv.next != nil {
		iv.next.prev = iv.prev
	} else {
		p.last = iv.prev
	}
	iv.prev, iv.next = nil, nil
	p.n--
}

// Tracker is the shared dependency-tracking state for one Runtime.
// The zero value is not usable; call New.
type Tracker struct {
	shards []*shard
	// smask selects a home shard from an identifier's low bits;
	// allMask has one bit per shard (the all-shard lock set).
	smask   uint64
	allMask uint64
	// sbits is log2 of the shard count: an AID's bits above it number it
	// densely within its home shard (aidSlot).
	sbits uint64

	gen ids.Gen
	// watcher holds the resolution watcher as a watcherBox (atomic so
	// opCtx can capture it without any shard lock).
	watcher atomic.Value

	// obs is the observability sink (nil = no-op). Hook points emit
	// lifecycle events through it; nothing in the tracker ever reads it,
	// so observation cannot perturb dependency state or replay.
	obs *obs.Observer
	// stall is the fault-injection resolution-stall hook (nil = no-op):
	// called in the resolving process's goroutine at the top of
	// Affirm/Deny/FreeOf, before any critical section, so an injected
	// sleep widens the speculation window the resolution would close
	// without ever holding a tracker lock.
	stall func(p ids.Proc, op string)
	// sink is the terminal-verdict sink (nil = no-op): invoked outside
	// all shard locks after any assumption reaches a terminal resolution
	// (Affirmed or Denied), however it got there — definite resolution,
	// spec-affirm promotion at finalize, IHD deny, system deny, rollback
	// of a spec-affirmer, or a remote ApplyVerdict. The wire layer uses
	// it to broadcast distributed Affirm/Deny; speculative states
	// (SpecAffirmed, spec-deny claims) are revocable and never reported.
	sink func(x ids.AID, affirmed bool)
}

type watcherBox struct{ fn func() }

// New returns an empty tracker. With no options the shard count is the
// next power of two >= GOMAXPROCS, capped at MaxShards; WithShards
// overrides it (tests pin 1 shard to compare against the sharded
// configuration).
func New(opts ...Option) *Tracker {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	n := normalizeShards(cfg.shards)
	t := &Tracker{
		shards:  make([]*shard, n),
		smask:   uint64(n - 1),
		allMask: (uint64(1) << n) - 1,
		sbits:   uint64(bits.TrailingZeros(uint(n))),
	}
	for i := range t.shards {
		s := &shard{
			aids:      make(map[ids.AID]*aidState),
			intervals: make(map[ids.Interval]*intervalState),
			procs:     make(map[ids.Proc]*procState),
			verdicts:  make(pages),
			finalized: make(map[ids.Interval]struct{}),
		}
		// Epoch 0 is reserved as "never" so zero-valued caches are
		// always stale; see TagClass.
		s.epoch.Store(1)
		t.shards[i] = s
	}
	return t
}

// SetObserver attaches the observability sink (nil detaches). Call it
// before the tracker sees traffic: the field is read without
// synchronization on every operation.
func (t *Tracker) SetObserver(o *obs.Observer) { t.obs = o }

// SetStallHook installs the resolution-stall fault hook (nil detaches):
// fn is invoked with the resolving process and the operation name
// ("affirm", "deny", "free_of") before the resolution takes any shard
// lock, and may sleep. Like SetObserver, call it before the tracker sees
// traffic — the field is read without synchronization.
func (t *Tracker) SetStallHook(fn func(p ids.Proc, op string)) { t.stall = fn }

// SetVerdictSink installs the terminal-verdict sink (nil detaches): fn is
// invoked outside all shard locks, once per assumption that reaches a
// terminal resolution in some settle, with the direction it settled.
// Like SetObserver, call it before the tracker sees traffic — the field
// is read without synchronization.
func (t *Tracker) SetVerdictSink(fn func(x ids.AID, affirmed bool)) { t.sink = fn }

// SetAIDBase namespaces this tracker's AID allocation (see ids.Gen): node
// i of a distributed runtime passes i<<48 so locally minted AIDs are
// globally unique. The low bits still drive shard selection, so the base
// does not perturb shard spread. Call before any AID is allocated.
func (t *Tracker) SetAIDBase(base uint64) { t.gen.SetAIDBase(base) }

// Register adds a process. The returned identifier names it in all
// subsequent calls.
func (t *Tracker) Register(hooks Hooks) ids.Proc {
	id := t.gen.NextProc()
	s := t.procShard(id)
	s.mu.Lock()
	s.procs[id] = &procState{id: id, hooks: hooks}
	s.mu.Unlock()
	return id
}

// NewAID allocates a fresh assumption identifier: an atomic counter bump
// plus its record in the AID's home shard.
func (t *Tracker) NewAID() ids.AID {
	x := t.gen.NextAID()
	t.Materialize([]ids.AID{x})
	return x
}

// Materialize ensures a record exists for every assumption identifier
// in tags that has none, creating missing ones Unresolved — unless the
// identifier is retired: its verdict already arrived, and it never comes
// again. Distributed runtimes call it when a tagged message arrives over
// the wire: an AID minted in another OS process is unknown here, and the
// classification walk treats unknown AIDs as settled (a retired AID is
// not unknown — the walk reads its verdict — so unknown can otherwise
// only mean "never existed"). Materializing before the message is
// enqueued makes the foreign tag speculative until the minting node's
// terminal verdict arrives — every terminal verdict is broadcast — so
// implicit guesses, orphan discard, and RecvSettled behave exactly as if
// the guess were local. Creation moves no epoch: a fresh AID cannot
// already appear in any tag set or replacement set, and a tag set naming
// a foreign x is only ever classified after the wire message carrying x
// was injected, so no cached verdict can predate the record.
func (t *Tracker) Materialize(tags []ids.AID) {
	for _, x := range tags {
		s := t.aidShard(x)
		s.mu.Lock()
		t.live(x)
		n := len(s.aids)
		s.mu.Unlock()
		t.obs.ShardAssumptions(int(t.aidIdx(x)), n)
	}
}

// Status returns the resolution state of x.
func (t *Tracker) Status(x ids.AID) Resolution {
	s := t.aidShard(x)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if a, ok := s.aids[x]; ok {
		return a.status
	}
	return t.retiredAt(s, x).status()
}

// Definite reports whether process p currently has no speculative
// intervals (the paper's Si.I = ∅).
func (t *Tracker) Definite(p ids.Proc) bool {
	s := t.procShard(p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	ps, ok := s.procs[p]
	return ok && ps.first == nil
}

// Tag returns the sending process's current dependency set — the message
// tag of §3. The result is shared and read-only: it is the current
// interval's IDO, which the tracker copies before it next writes it. It
// returns ErrRolledBack when the process has a pending rollback: a send
// from a doomed continuation would otherwise escape orphaning by
// carrying post-rollback tags.
func (t *Tracker) Tag(p ids.Proc) ([]ids.AID, error) {
	s := t.procShard(p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	ps, ok := s.procs[p]
	if !ok {
		return nil, ErrUnknownProc
	}
	if ps.hasPending {
		return nil, ErrRolledBack
	}
	if cur := ps.current(); cur != nil {
		cur.idoShared.Store(true)
		return slices.Clip(cur.ido), nil
	}
	return nil, nil
}

// Settled classifies a tag set: settled means every transitive dependency
// is definitively affirmed; orphan means some dependency is denied.
// Neither means the set is still speculative.
func (t *Tracker) Settled(tags []ids.AID) (settled, orphan bool) {
	cls := t.classify(tags)
	return cls.Settled, cls.Orphan
}

// TagClass is a memoized classification verdict for one tag set: the
// (settled, orphan) answer of Settled plus the validity stamp that lets
// it be revalidated without locks — the set of shards the dependency
// walk visited (mask) and the sum of those shards' resolution epochs at
// verdict time (sum). The zero value is "never classified" and is
// always stale.
//
// Receivers keep one TagClass per queued message so repeated queue
// scans cost a few atomic epoch loads per message instead of a locked
// transitive dependency walk.
type TagClass struct {
	mask uint64
	sum  uint64
	// Settled and Orphan mirror Settled's results; both false means the
	// tag set was still speculative when classified.
	Settled bool
	Orphan  bool
}

// ClassCurrent reports whether the verdict is still valid, using only
// atomic epoch loads — no locks.
//
// A settled verdict is valid forever: settled means every transitive
// dependency is Affirmed, Affirmed is a terminal resolution, and a
// SpecAffirmed replacement set is frozen when written — so the walk that
// produced the verdict would visit the same nodes and find the same
// terminal statuses at any later epoch. Orphan and speculative verdicts
// are valid while no visited shard's epoch has advanced: epochs are
// monotone, so the sum over the visited mask is unchanged iff every
// individual epoch is unchanged, and the walk reads only state homed on
// visited shards.
func (t *Tracker) ClassCurrent(c *TagClass) bool {
	if c.Settled {
		return true
	}
	if c.mask == 0 {
		return false // zero value: never classified
	}
	return t.epochSum(c.mask) == c.sum
}

// ClassifyCached classifies tags, consulting and refreshing the caller's
// memoized verdict: when c is still current the answer is returned with a
// few atomic loads and no lock; otherwise the set is classified under
// the home shards' read locks and c is overwritten with the new stamped
// verdict. The caller must own c (the tracker does not retain it).
func (t *Tracker) ClassifyCached(tags []ids.AID, c *TagClass) (settled, orphan bool) {
	if t.ClassCurrent(c) {
		return c.Settled, c.Orphan
	}
	*c = t.classify(tags)
	return c.Settled, c.Orphan
}

// classify computes a fresh stamped verdict. The walk runs under read
// locks of the tag set's home shards, held simultaneously for the whole
// walk (all acquired in index order); if the walk crosses into an
// unlocked shard through a spec-affirm replacement chain, it retries
// under an all-shard read lock. Epoch stamps are loaded while the locks
// are held, so a writer that later invalidates the verdict must bump an
// epoch the reader will see.
func (t *Tracker) classify(tags []ids.AID) TagClass {
	home := t.tagsMask(tags)
	t.lockR(home)
	cls, escaped := t.classifyMasked(tags, home)
	t.unlockR(home)
	if !escaped {
		return cls
	}
	t.obs.ShardContention()
	t.lockR(t.allMask)
	cls, _ = t.classifyMasked(tags, t.allMask)
	t.unlockR(t.allMask)
	return cls
}

// classifyMasked runs the classification walk while the shards in
// locked are held (read or write). escaped=true means the walk reached
// an AID homed outside locked and the verdict is invalid.
func (t *Tracker) classifyMasked(tags []ids.AID, locked uint64) (cls TagClass, escaped bool) {
	w := depWalk{t: t, locked: locked}
	orphan := false
	for _, x := range tags {
		if _, ok := w.visit(x, nil); !ok {
			if w.escaped {
				return TagClass{}, true
			}
			orphan = true
			break
		}
	}
	cls = TagClass{
		mask:    w.shards,
		Settled: !orphan && w.unresolved == 0,
		Orphan:  orphan,
	}
	cls.sum = t.epochSum(cls.mask)
	return cls, false
}

// SetResolutionWatcher installs a callback invoked (outside all tracker
// locks) after any operation that resolves assumptions or settles
// intervals — the signal pessimistic receivers (engine.RecvSettled) wait
// on.
func (t *Tracker) SetResolutionWatcher(fn func()) {
	t.watcher.Store(watcherBox{fn: fn})
}

// opCtx accumulates the settlement callbacks of one logical operation so
// they can run after the critical sections, plus the commit bookkeeping
// of the settle protocol.
type opCtx struct {
	// notify lists each process with a new rollback target once, in the
	// order the cascade reached them.
	notify spill[procHooks]
	// fin lists the intervals this operation made definite, in cascade
	// order; finish releases their commits in interval order.
	fin spill[*intervalState]
	// after holds the aborts of discarded intervals, in cascade order.
	after []func()
	// verdicts holds the terminal verdicts for the sink, in cascade
	// order — as data, so a settle allocates no closure per verdict.
	verdicts spill[verdictNote]
	// dirty is the set of shards whose assumptions changed resolution
	// state in the current critical section; commitCtx bumps their
	// epochs and clears it.
	dirty uint64
	// resolved marks that some assumption's resolution state changed (or
	// a speculative deny was recorded), so the resolution watcher must
	// fire.
	resolved bool
	// watcher is the resolution watcher captured at operation start —
	// finish never has to touch tracker state.
	watcher func()
}

// newOpCtx captures the watcher; needs no lock.
func (t *Tracker) newOpCtx() *opCtx {
	box, _ := t.watcher.Load().(watcherBox)
	return &opCtx{watcher: box.fn}
}

type procHooks struct {
	p ids.Proc
	h Hooks
}

type verdictNote struct {
	x        ids.AID
	affirmed bool
}

// spill is a settle's list of what it made definite or terminal, or
// sent back: the first few members sit inline, on the settle's stack;
// past that, all of them move to the heap. Most settles finalize one
// interval and terminate one assumption, and a deny rolls back a few
// processes.
type spill[T any] struct {
	inline [4]T
	n      int
	more   []T
}

func (l *spill[T]) add(v T) {
	if l.n < len(l.inline) {
		l.inline[l.n] = v
	} else {
		if l.n == len(l.inline) {
			l.more = append(l.more, l.inline[:]...)
		}
		l.more = append(l.more, v)
	}
	l.n++
}

func (l *spill[T]) all() []T {
	if l.n > len(l.inline) {
		return l.more
	}
	return l.inline[:l.n]
}

func (ctx *opCtx) notifyProc(p ids.Proc, h Hooks) {
	for _, n := range ctx.notify.all() {
		if n.p == p {
			return
		}
	}
	ctx.notify.add(procHooks{p, h})
}

// finish delivers rollback notifications and runs queued effects, outside
// all locks. Commits leave in ascending interval ID: identifiers come
// from one counter, so that is program order within each process, which
// cascade order is not — a speculative affirm re-homes X's dependents
// into other DOM sets in whatever order it meets them — and two effects
// of one process are not independent steps.
func (t *Tracker) finish(ctx *opCtx) {
	for _, n := range ctx.notify.all() {
		if n.h != nil {
			n.h.NotifyRollback()
		}
	}
	fin := ctx.fin.all()
	if len(fin) > 1 {
		slices.SortFunc(fin, func(a, b *intervalState) int { return cmp.Compare(a.id, b.id) })
	}
	for _, iv := range fin {
		for _, commit := range iv.commits {
			commit()
		}
	}
	for _, f := range ctx.after {
		f()
	}
	if t.sink != nil {
		for _, v := range ctx.verdicts.all() {
			t.sink(v.x, v.affirmed)
		}
	}
	if ctx.resolved && ctx.watcher != nil {
		ctx.watcher()
	}
}

// setStatus flips a's resolution and maintains the per-shard epoch dirt
// and the watcher flag. Caller holds a's home shard write lock
// (enforced at commit by commitCtx's dirty check).
func (t *Tracker) setStatus(a *aidState, st Resolution, ctx *opCtx) {
	a.status = st
	ctx.dirty |= bit(t.aidIdx(a.id))
	ctx.resolved = true
	// Terminal transitions are retired at commit and reported to the
	// verdict sink from finish, outside every shard lock. setStatus is
	// the single chokepoint for resolution-state changes, so no terminal
	// verdict can slip past the retirement or the wire broadcast
	// regardless of which cascade produced it.
	if !st.Terminal() {
		return
	}
	s := t.aidShard(a.id)
	s.retiring = append(s.retiring, a.id)
	if t.sink != nil {
		ctx.verdicts.add(verdictNote{a.id, st == Affirmed})
	}
}

// PendingRollback reports whether a rollback target is pending for p.
// With no target pending anywhere in p's shard — the common case — the
// answer is one atomic load; a target installed concurrently is ordered
// after such a read exactly as it would be after a locked one.
func (t *Tracker) PendingRollback(p ids.Proc) bool {
	s := t.procShard(p)
	if s.pendingProcs.Load() == 0 {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	ps, ok := s.procs[p]
	return ok && ps.hasPending
}

// TakePending pops and returns p's pending rollback target; ok is false
// when none is pending.
func (t *Tracker) TakePending(p ids.Proc) (tgt RollbackTarget, ok bool) {
	s := t.procShard(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	ps, found := s.procs[p]
	if !found || !ps.hasPending {
		return RollbackTarget{}, false
	}
	tgt = ps.pending
	ps.pending, ps.hasPending = RollbackTarget{}, false
	s.pendingProcs.Add(-1)
	return tgt, true
}

// visited is the seen-set of a walk, held by value on the walker's
// stack: an inline array for the common walk of a few identifiers,
// spilling to a map only past that.
type visited[K comparable] struct {
	keys  [16]K
	n     int
	spill map[K]struct{}
}

// add marks k, reporting whether it was not marked yet.
func (v *visited[K]) add(k K) bool {
	if v.spill == nil {
		for _, seen := range v.keys[:v.n] {
			if seen == k {
				return false
			}
		}
		if v.n < len(v.keys) {
			v.keys[v.n] = k
			v.n++
			return true
		}
		v.spill = make(map[K]struct{}, 2*len(v.keys))
		for _, seen := range v.keys {
			v.spill[seen] = struct{}{}
		}
	}
	if _, ok := v.spill[k]; ok {
		return false
	}
	v.spill[k] = struct{}{}
	return true
}

// depWalk is the transitive tag expansion through speculative affirms
// (Lemma 6.1), exactly as the semantics machine does it — but without
// allocating: the visited AIDs are a stack value, and the unresolved
// dependencies are collected only when the caller needs them
// (Guess/Deliver open an interval; classification needs just the count),
// into the caller's buffer. The walk reads only shards in locked,
// accumulating the visited-shard mask; reaching an AID homed outside
// locked sets escaped and aborts.
type depWalk struct {
	t          *Tracker
	locked     uint64
	shards     uint64
	escaped    bool
	seen       visited[ids.AID]
	unresolved int
	collect    bool
}

// visit appends x's unresolved dependencies to deps when collecting. It
// reports false when it reaches a denied assumption (orphan) or an
// unlocked shard (escaped; check w.escaped to distinguish). deps travels
// by value, not in w, so a caller's stack buffer stays on the stack.
func (w *depWalk) visit(x ids.AID, deps []ids.AID) ([]ids.AID, bool) {
	if !w.seen.add(x) {
		return deps, true
	}
	idx := w.t.aidIdx(x)
	if w.locked&bit(idx) == 0 {
		w.escaped = true
		return deps, false
	}
	w.shards |= bit(idx)
	s := w.t.shards[idx]
	a, ok := s.aids[x]
	if !ok {
		// Retired — its bits hold the verdict, and a denied one is still
		// an orphan — or never seen here, which reads as settled.
		return deps, w.t.retiredAt(s, x).status() != Denied
	}
	switch a.status {
	case Unresolved:
		w.unresolved++
		if w.collect {
			deps = append(deps, x)
		}
	case Affirmed:
	case Denied:
		return deps, false
	case SpecAffirmed:
		for _, y := range a.replacement {
			if deps, ok = w.visit(y, deps); !ok {
				return deps, false
			}
		}
	}
	return deps, true
}

// resolveDepsMasked expands tags into their unresolved transitive
// dependencies, appended to buf and deduplicated, reporting orphan when
// a denied assumption is reached and escape when the walk leaves the
// locked shard set.
func (t *Tracker) resolveDepsMasked(tags []ids.AID, locked uint64, buf []ids.AID) (deps []ids.AID, orphan, escaped bool) {
	w := depWalk{t: t, locked: locked, collect: true}
	deps = buf
	for _, x := range tags {
		var ok bool
		if deps, ok = w.visit(x, deps); !ok {
			return nil, !w.escaped, w.escaped
		}
	}
	return deps, false, false
}

// procAt returns p's state; caller holds p's home shard lock.
func (t *Tracker) procAt(p ids.Proc) (*procState, error) {
	ps, ok := t.procShard(p).procs[p]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownProc, p)
	}
	return ps, nil
}

// aid returns x's state, creating it Unresolved on first reference.
// Caller holds x's home shard write lock and knows x is not retired:
// dependLocked only ever names unresolved assumptions. Everything that
// can name a retired one goes through live or record.
func (t *Tracker) aid(x ids.AID) *aidState {
	s := t.aidShard(x)
	a, ok := s.aids[x]
	if !ok {
		a = &aidState{id: x, status: Unresolved}
		s.aids[x] = a
	}
	return a
}

// live returns x's state like aid, except that a retired x keeps no
// record and gets none: live returns nil and its verdict. Caller holds
// x's home shard write lock.
func (t *Tracker) live(x ids.AID) (*aidState, retired) {
	s := t.aidShard(x)
	if a, ok := s.aids[x]; ok {
		return a, notRetired
	}
	if r := t.retiredAt(s, x); r != notRetired {
		return nil, r
	}
	return t.aid(x), notRetired
}

// record returns x's state, or nil when x is retired. Caller holds x's
// home shard lock.
func (t *Tracker) record(x ids.AID) *aidState { return t.aidShard(x).aids[x] }

// retired is a retired assumption's verdict: two bits in its home
// shard's verdict pages. The zero value means not retired — X has a
// record, or this tracker never saw it.
type retired uint8

const (
	notRetired retired = iota
	retiredAffirmed
	retiredDenied
	retiredSystemDenied // §5.6: a later affirm is stale, not a conflict
)

// retiredAt reads x's verdict bits; s is x's home shard, locked.
func (t *Tracker) retiredAt(s *shard, x ids.AID) retired {
	return retired(s.verdicts.get(t.aidSlot(x)))
}

// status is the resolution a retired verdict stands for (Unresolved for
// notRetired: an AID never seen here).
func (r retired) status() Resolution {
	switch r {
	case retiredAffirmed:
		return Affirmed
	case retiredDenied, retiredSystemDenied:
		return Denied
	}
	return Unresolved
}

// resolve answers v asked of a retired X exactly as affirmLocked and
// denyLocked answer a terminal record: a redundant verdict, a free_of
// (X is in no IDO) and a stale affirm of a system-denied X are no-ops,
// a contradicting one is the §5.2 conflict.
func (r retired) resolve(v verdict) error {
	switch {
	case v == affirm && r == retiredDenied, v == deny && r == retiredAffirmed:
		return ErrConflict
	}
	return nil
}

// openIntervalLocked creates a speculative interval for p (Equations 1–5;
// the PS checkpoint is the runtime's logIndex). Caller holds the write
// locks of ps's shard and of every dep's home shard (established by the
// settle footprint checks). An inherited dependency's DOM already holds
// an earlier interval of p, so its home is not written.
func (t *Tracker) openIntervalLocked(ps *procState, logIndex int, implicit bool, deps []ids.AID) *intervalState {
	iv := &intervalState{
		id:       t.gen.NextInterval(),
		proc:     ps.id,
		logIndex: logIndex,
		implicit: implicit,
		status:   speculative,
	}
	iv.commits = iv.firstCommit[:0]
	if t.obs != nil {
		iv.openedAt = time.Now()
	}
	t.procShard(ps.id).intervals[iv.id] = iv
	// Equation 3: inherit the enclosing interval's dependencies.
	var inherited []ids.AID
	if cur := ps.current(); cur != nil {
		inherited = cur.ido
	}
	iv.ido = append(make([]ids.AID, 0, len(inherited)+len(deps)), inherited...)
	for _, x := range deps {
		if addDep(iv, x) {
			t.dependLocked(iv, x)
		}
	}
	ps.push(iv)
	return iv
}

// addDep inserts x into iv.IDO, reporting whether it was missing. A
// shared IDO is clipped first, so the insert copies it rather than shift
// the tags that share it.
func addDep(iv *intervalState, x ids.AID) bool {
	i, ok := slices.BinarySearch(iv.ido, x)
	if ok {
		return false
	}
	if iv.idoShared.Load() {
		iv.ido = slices.Clip(iv.ido)
		iv.idoShared.Store(false)
	}
	iv.ido = slices.Insert(iv.ido, i, x)
	return true
}

// dependLocked maintains the Lemma 5.1 symmetry (Equations 3 and 4) for
// an X new to iv's process: iv, the first of the process's intervals to
// depend on X, enters X.DOM, and stands there for every later one.
func (t *Tracker) dependLocked(iv *intervalState, x ids.AID) {
	a := t.aid(x)
	a.dom = append(a.dom, iv)
}

// spreadLocked makes b and every later interval of its chain depend on
// y, a member of a speculative affirm's replacement (Equations 10–14).
// The intervals that already do are a suffix of the chain (Theorem 5.1):
// the ones before it gain y, and y's DOM entry for the process moves to
// b, the new first of the suffix.
func (t *Tracker) spreadLocked(b *intervalState, y ids.AID) {
	if b.prev != nil && hasAID(b.prev.ido, y) {
		return // the process's entry is earlier still
	}
	c := b
	for c != nil && addDep(c, y) {
		c = c.next
	}
	switch {
	case c == b: // b is the entry already
	case c != nil:
		a := t.aid(y)
		a.dom[domIndex(a.dom, c.proc)] = b
	default:
		t.dependLocked(b, y)
	}
}

// dropDep takes x out of iv.IDO (Equations 7 and 12). A shared IDO is
// copied first, unless x is its last member and a shorter view will do.
func dropDep(iv *intervalState, x ids.AID) {
	i, ok := slices.BinarySearch(iv.ido, x)
	switch {
	case !ok:
	case i == len(iv.ido)-1:
		iv.ido = iv.ido[:i]
	case iv.idoShared.Load():
		iv.ido = slices.Delete(slices.Clone(iv.ido), i, i+1)
		iv.idoShared.Store(false)
	default:
		iv.ido = slices.Delete(iv.ido, i, i+1)
	}
}

// domIDs renders a DOM as its sorted interval ids.
func domIDs(dom []*intervalState) []ids.Interval {
	out := make([]ids.Interval, len(dom))
	for i, iv := range dom {
		out[i] = iv.id
	}
	slices.Sort(out)
	return out
}

// DebugDump renders the full dependency state — every assumption that
// still has a record (unresolved or spec-affirmed; a terminal one is
// retired to its verdict bits and not listed) with its DOM, and every
// live interval with its IDO — for diagnosing wedged systems.
// Diagnostic use only; takes an all-shard read lock.
func (t *Tracker) DebugDump() string {
	t.lockR(t.allMask)
	defer t.unlockR(t.allMask)
	var b []byte
	add := func(s string) { b = append(b, s...) }
	var aids []ids.AID
	for _, s := range t.shards {
		for id := range s.aids {
			aids = append(aids, id)
		}
	}
	slices.Sort(aids)
	for _, id := range aids {
		a := t.aidShard(id).aids[id]
		add(fmt.Sprintf("  %v: %v dom=%v", a.id, a.status, domIDs(a.dom)))
		if a.status == SpecAffirmed {
			add(fmt.Sprintf(" affirmer=%v repl=%v", a.affirmer, a.replacement))
		}
		if a.systemDenied {
			add(" (system)")
		}
		add("\n")
	}
	var procs []ids.Proc
	for _, s := range t.shards {
		for id := range s.procs {
			procs = append(procs, id)
		}
	}
	slices.Sort(procs)
	for _, id := range procs {
		ps := t.procShard(id).procs[id]
		if ps.first == nil {
			continue
		}
		add(fmt.Sprintf("  %v live:", id))
		for iv := ps.first; iv != nil; iv = iv.next {
			add(fmt.Sprintf(" %v@log%d(ido=%v ihd=%v)", iv.id, iv.logIndex, iv.ido, iv.ihd))
		}
		add("\n")
	}
	return string(b)
}

// CheckInvariants verifies the tracker's internal consistency — the
// runtime-layer form of the paper's structural invariants:
//
//   - per-process live chains have subset-ordered IDO sets (the heart of
//     Theorem 5.1), so the intervals of a process that depend on X are a
//     suffix of its chain;
//   - Lemma 5.1 symmetry, stored once per process: X ∈ B.IDO ⟺ X.DOM
//     holds the earliest live interval of B's process whose IDO holds X,
//     and X.DOM holds at most one interval per process;
//   - resolved assumptions have drained DOM sets (Equations 9/14 and
//     rollback withdrawal), and terminal ones keep no record — they are
//     retired to their verdict bits, and a retired AID is never rebuilt;
//   - every live interval is speculative with a non-empty IDO
//     (Equation 20's contrapositive), held strictly ascending (the
//     binary searches rely on it);
//   - sharding integrity: every interval is stored in its process's
//     shard, every DOM entry and every chain link points at a
//     registered interval, and each chain's links and count agree.
//
// Intended for tests and diagnostics; takes an all-shard read lock.
func (t *Tracker) CheckInvariants() error {
	t.lockR(t.allMask)
	defer t.unlockR(t.allMask)

	for si, s := range t.shards {
		for _, iv := range s.intervals {
			if uint64(si) != t.procIdx(iv.proc) {
				return fmt.Errorf("interval %v of %v stored in shard %d, home is %d",
					iv.id, iv.proc, si, t.procIdx(iv.proc))
			}
			if iv.status != speculative {
				return fmt.Errorf("retained interval %v has status %d", iv.id, iv.status)
			}
			if len(iv.ido) == 0 {
				return fmt.Errorf("speculative interval %v has empty IDO (Equation 20)", iv.id)
			}
			for i, x := range iv.ido {
				if i > 0 && iv.ido[i-1] >= x {
					return fmt.Errorf("%v.IDO %v is not strictly ascending", iv.id, iv.ido)
				}
			}
		}
		for _, ps := range s.procs {
			n := 0
			for b := ps.first; b != nil; b = b.next {
				n++
				if b.next == nil && b != ps.last || b.next != nil && b.next.prev != b {
					return fmt.Errorf("%v's chain is broken at %v", ps.id, b.id)
				}
				if s.intervals[b.id] != b {
					return fmt.Errorf("%v's chain holds unregistered interval %v", ps.id, b.id)
				}
				var prev []ids.AID
				if b.prev != nil {
					prev = b.prev.ido
				}
				for _, x := range prev {
					if !hasAID(b.ido, x) {
						return fmt.Errorf("theorem 5.1: %v.IDO ⊄ %v.IDO in %v", b.prev.id, b.id, ps.id)
					}
				}
				// b is the earliest interval of ps depending on x exactly
				// when its predecessor does not.
				for _, x := range b.ido {
					a, ok := t.aidShard(x).aids[x]
					if !ok {
						return fmt.Errorf("lemma 5.1: %v ∈ %v.IDO has no record", x, b.id)
					}
					first, in := !hasAID(prev, x), slices.Contains(a.dom, b)
					switch {
					case first && !in:
						return fmt.Errorf("lemma 5.1: %v ∈ %v.IDO but %v.DOM lacks %v, the earliest such interval of %v", x, b.id, x, b.id, ps.id)
					case !first && in:
						return fmt.Errorf("lemma 5.1: %v.DOM holds %v, not the earliest interval of %v depending on %v", x, b.id, ps.id, x)
					}
				}
			}
			if n != ps.n || ps.first == nil && ps.last != nil {
				return fmt.Errorf("%v's chain holds %d intervals, counted %d", ps.id, n, ps.n)
			}
		}
		for _, a := range s.aids {
			if a.status != Unresolved && len(a.dom) != 0 {
				return fmt.Errorf("resolved %v (%v) retains DOM %v", a.id, a.status, domIDs(a.dom))
			}
			if a.status.Terminal() {
				return fmt.Errorf("terminal %v (%v) was not retired", a.id, a.status)
			}
			if r := t.retiredAt(s, a.id); r != notRetired {
				return fmt.Errorf("retired %v (%v) has a record again", a.id, r.status())
			}
			for i, iv := range a.dom {
				if t.procShard(iv.proc).intervals[iv.id] != iv {
					return fmt.Errorf("%v.DOM references unregistered interval %v", a.id, iv.id)
				}
				if !hasAID(iv.ido, a.id) {
					return fmt.Errorf("lemma 5.1: %v ∈ %v.DOM but %v ∉ %v.IDO", iv.id, a.id, a.id, iv.id)
				}
				if domIndex(a.dom[:i], iv.proc) >= 0 {
					return fmt.Errorf("%v.DOM %v holds two intervals of %v", a.id, domIDs(a.dom), iv.proc)
				}
			}
		}
	}
	return nil
}

// WasFinalized reports whether p's interval iv was made definite at some
// point.
func (t *Tracker) WasFinalized(p ids.Proc, iv ids.Interval) bool {
	s := t.procShard(p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.finalized[iv]
	return ok
}

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

// Stats counts tracker activity for benchmarks and experiments.
type Stats struct {
	Guesses         int64 // explicit guesses that opened an interval
	ShortGuesses    int64 // guesses short-circuited on resolved AIDs
	ImplicitGuesses int64 // intervals opened by tagged message delivery
	DefiniteAffirms int64
	SpecAffirms     int64
	DefiniteDenies  int64
	SpecDenies      int64
	FreeOfs         int64
	Finalized       int64 // intervals made definite
	RolledBack      int64 // intervals discarded
	Orphans         int64 // orphaned tag sets observed at delivery
}

// add accumulates o into s (per-shard counters into a global view).
func (s *Stats) add(o Stats) {
	s.Guesses += o.Guesses
	s.ShortGuesses += o.ShortGuesses
	s.ImplicitGuesses += o.ImplicitGuesses
	s.DefiniteAffirms += o.DefiniteAffirms
	s.SpecAffirms += o.SpecAffirms
	s.DefiniteDenies += o.DefiniteDenies
	s.SpecDenies += o.SpecDenies
	s.FreeOfs += o.FreeOfs
	s.Finalized += o.Finalized
	s.RolledBack += o.RolledBack
	s.Orphans += o.Orphans
}

// The dependency sets are slices held by value: no map, no pointer to a
// set, and a removal closes the gap at once, so a walk never steps over
// a departed member. A set of AIDs that is searched — an IDO, a
// replacement — is kept sorted, because a speculative affirm merges the
// affirmer's dependencies into the IDO of every dependent and on a deep
// chain that must not cost a linear scan per member. IHD and the
// spec-affirmed list only grow (a resolution adds each member once) and
// keep the order of the resolutions that filled them.

type aidState struct {
	id ids.AID
	// dom holds the dependent intervals directly (not by id): an
	// interval lives in its process's shard, and cross-shard cascades
	// must not need a foreign shard's interval map to find it. It is in
	// the order the intervals came to depend on X, so cascade order is
	// deterministic for a given operation history regardless of shard
	// count. A resolution drains it for good: no interval depends on a
	// resolved assumption.
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

// withoutInterval removes iv from a DOM. The search runs from the end:
// a rollback discards a chain newest-first, and the newest dependents
// are the last ones appended.
func withoutInterval(dom []*intervalState, iv *intervalState) []*intervalState {
	for i := len(dom) - 1; i >= 0; i-- {
		if dom[i] == iv {
			return slices.Delete(dom, i, i+1)
		}
	}
	return dom
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
	// live is the chain of speculative intervals in creation order; the
	// last element is the current interval (the I control variable).
	live []*intervalState
	// pending is the earliest unapplied rollback target for this
	// process. It is merged under the process's shard lock — inside the
	// same critical section that discards the intervals — so targets can
	// never be observed out of order with the interval state they
	// describe (Theorem 5.1 makes the minimum the correct merge).
	pending *RollbackTarget
}

func (p *procState) current() *intervalState {
	if len(p.live) == 0 {
		return nil
	}
	return p.live[len(p.live)-1]
}

// Tracker is the shared dependency-tracking state for one Runtime.
// The zero value is not usable; call New.
type Tracker struct {
	shards []*shard
	// smask selects a home shard from an identifier's low bits;
	// allMask has one bit per shard (the all-shard lock set).
	smask   uint64
	allMask uint64

	gen ids.Gen
	// settleSeq is the global settle sequence number: it advances once
	// per settle commit that resolved anything, preserving the old
	// single-epoch Epoch() as a monotonic "something settled" counter
	// for diagnostics and tests. Classification validity uses the
	// per-shard epochs, not this.
	settleSeq atomic.Uint64
	// watcher holds the resolution watcher as a watcherBox (atomic so
	// opCtx can capture it without any shard lock).
	watcher atomic.Value
	// escalations counts home-set -> all-shard lock escalations.
	escalations atomic.Int64

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

// New returns an empty tracker. With no options the shard count is
// DefaultShards; WithShards overrides it (tests pin 1 shard to compare
// against the sharded configuration).
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
	}
	for i := range t.shards {
		s := &shard{
			aids:      make(map[ids.AID]*aidState),
			intervals: make(map[ids.Interval]*intervalState),
			procs:     make(map[ids.Proc]*procState),
			finalized: make(map[ids.Interval]struct{}),
		}
		// Epoch 0 is reserved as "never" so zero-valued caches are
		// always stale; see TagClass.
		s.epoch.Store(1)
		t.shards[i] = s
	}
	t.settleSeq.Store(1)
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
// in tags, creating missing ones Unresolved. Distributed runtimes call
// it when a tagged message arrives over the wire: an AID minted in
// another OS process is unknown here, and the classification walk
// treats unknown AIDs as settled (locally minted records are never
// deleted, so unknown could otherwise only mean "never existed").
// Materializing before the message is enqueued makes the foreign tag
// speculative until the minting node's terminal verdict arrives —
// every terminal verdict is broadcast — so implicit guesses, orphan
// discard, and RecvSettled behave exactly as if the guess were local.
// Creation moves no epoch: a fresh AID cannot already appear in any tag
// set or replacement set, and a tag set naming a foreign x is only ever
// classified after the wire message carrying x was injected, so no
// cached verdict can predate the record.
func (t *Tracker) Materialize(tags []ids.AID) {
	for _, x := range tags {
		s := t.aidShard(x)
		s.mu.Lock()
		t.aid(x)
		n := len(s.aids)
		s.mu.Unlock()
		t.obs.ShardAssumptions(int(t.aidIdx(x)), n)
	}
}

// Stats returns the activity counters summed across shards. The
// snapshot is advisory, not linearizable: each shard's counters are
// read under that shard's lock, but shards are visited in turn, so an
// operation running concurrently may be half-counted. Quiesce first for
// settled totals (every test and experiment that asserts on Stats does).
func (t *Tracker) Stats() Stats {
	var out Stats
	for _, s := range t.shards {
		s.mu.RLock()
		out.add(s.stats)
		s.mu.RUnlock()
	}
	return out
}

// Status returns the resolution state of x.
func (t *Tracker) Status(x ids.AID) Resolution {
	s := t.aidShard(x)
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, ok := s.aids[x]
	if !ok {
		return Unresolved
	}
	return a.status
}

// Definite reports whether process p currently has no speculative
// intervals (the paper's Si.I = ∅).
func (t *Tracker) Definite(p ids.Proc) bool {
	s := t.procShard(p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	ps, ok := s.procs[p]
	return ok && len(ps.live) == 0
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
	if ps.pending != nil {
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

// Epoch returns the global settle sequence number: it advances whenever
// any settle commit resolves an assumption anywhere. Diagnostics and
// coarse "did anything settle" checks use it; classification-cache
// validity uses the per-shard epochs via ClassCurrent instead.
func (t *Tracker) Epoch() uint64 { return t.settleSeq.Load() }

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
	t.noteEscalation()
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
	notify []procHooks
	// The nfin intervals this operation made definite, in cascade
	// order; finish releases their commits in interval order. The first
	// few sit in fin; past that, all of them move to finMore.
	fin     [4]*intervalState
	nfin    int
	finMore []*intervalState
	// after holds the aborts of discarded intervals, in cascade order.
	after []func()
	// verdicts holds the terminal verdicts for the sink, in cascade
	// order — as data, so a settle allocates no closure per verdict.
	verdicts []verdictNote
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

// addFinalized records iv as made definite by this operation.
func (ctx *opCtx) addFinalized(iv *intervalState) {
	if ctx.nfin < len(ctx.fin) {
		ctx.fin[ctx.nfin] = iv
	} else {
		if ctx.nfin == len(ctx.fin) {
			ctx.finMore = append(ctx.finMore, ctx.fin[:]...)
		}
		ctx.finMore = append(ctx.finMore, iv)
	}
	ctx.nfin++
}

// finalized lists the intervals this operation made definite.
func (ctx *opCtx) finalized() []*intervalState {
	if ctx.nfin > len(ctx.fin) {
		return ctx.finMore
	}
	return ctx.fin[:ctx.nfin]
}

func (ctx *opCtx) notifyProc(p ids.Proc, h Hooks) {
	for _, n := range ctx.notify {
		if n.p == p {
			return
		}
	}
	ctx.notify = append(ctx.notify, procHooks{p, h})
}

// finish delivers rollback notifications and runs queued effects, outside
// all locks. Commits leave in ascending interval ID: identifiers come
// from one counter, so that is program order within each process, which
// cascade order is not — a speculative affirm re-homes X's dependents
// into other DOM sets in whatever order it meets them — and two effects
// of one process are not independent steps.
func (t *Tracker) finish(ctx *opCtx) {
	for _, n := range ctx.notify {
		if n.h != nil {
			n.h.NotifyRollback()
		}
	}
	fin := ctx.finalized()
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
	for _, v := range ctx.verdicts {
		t.sink(v.x, v.affirmed)
	}
	if ctx.resolved && ctx.watcher != nil {
		ctx.watcher()
	}
}

// setStatus flips a's resolution and maintains the per-shard epoch dirt,
// the unresolved gauge, and the watcher flag. Caller holds a's home
// shard write lock (enforced at commit by commitCtx's dirty check).
func (t *Tracker) setStatus(a *aidState, st Resolution, ctx *opCtx) {
	idx := t.aidIdx(a.id)
	if a.status == Unresolved && st != Unresolved {
		t.shards[idx].unresolved--
	}
	a.status = st
	ctx.dirty |= bit(idx)
	ctx.resolved = true
	// Terminal transitions are reported to the verdict sink from finish,
	// outside every shard lock. setStatus is the single chokepoint for
	// resolution-state changes, so no terminal verdict can slip past the
	// wire broadcast regardless of which cascade produced it.
	if t.sink != nil && (st == Affirmed || st == Denied) {
		ctx.verdicts = append(ctx.verdicts, verdictNote{a.id, st == Affirmed})
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
	return ok && ps.pending != nil
}

// TakePending pops and returns p's pending rollback target, or nil.
func (t *Tracker) TakePending(p ids.Proc) *RollbackTarget {
	s := t.procShard(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	ps, ok := s.procs[p]
	if !ok || ps.pending == nil {
		return nil
	}
	tgt := ps.pending
	ps.pending = nil
	s.pendingProcs.Add(-1)
	return tgt
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
	a, ok := w.t.shards[idx].aids[x]
	if !ok {
		return deps, true
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
// Caller holds x's home shard write lock.
func (t *Tracker) aid(x ids.AID) *aidState {
	s := t.aidShard(x)
	a, ok := s.aids[x]
	if !ok {
		a = &aidState{id: x, status: Unresolved}
		s.aids[x] = a
		s.unresolved++
	}
	return a
}

// openIntervalLocked creates a speculative interval for p (Equations 1–5;
// the PS checkpoint is the runtime's logIndex). Caller holds the write
// locks of ps's shard and of every dep's and inherited dependency's
// home shard (established by the settle footprint checks).
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
	iv.ido = make([]ids.AID, 0, len(inherited)+len(deps))
	for _, x := range inherited {
		t.dependLocked(iv, x)
	}
	for _, x := range deps {
		t.dependLocked(iv, x)
	}
	ps.live = append(ps.live, iv)
	return iv
}

// dependLocked maintains the Lemma 5.1 symmetry (Equations 3 and 4): X
// missing from iv.IDO means iv is missing from X.DOM. A shared IDO is
// clipped first, so the insert copies it rather than shift the tags
// that share it.
func (t *Tracker) dependLocked(iv *intervalState, x ids.AID) {
	if i, ok := slices.BinarySearch(iv.ido, x); !ok {
		if iv.idoShared.Load() {
			iv.ido = slices.Clip(iv.ido)
			iv.idoShared.Store(false)
		}
		iv.ido = slices.Insert(iv.ido, i, x)
		a := t.aid(x)
		a.dom = append(a.dom, iv)
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

// DebugDump renders the full dependency state — every unresolved or
// interesting assumption with its DOM, and every live interval with its
// IDO — for diagnosing wedged systems. Diagnostic use only; takes an
// all-shard read lock.
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
		if a.status == Affirmed && len(a.dom) == 0 {
			continue // committed and drained: boring
		}
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
		if len(ps.live) == 0 {
			continue
		}
		add(fmt.Sprintf("  %v live:", id))
		for _, iv := range ps.live {
			add(fmt.Sprintf(" %v@log%d(ido=%v ihd=%v)", iv.id, iv.logIndex, iv.ido, iv.ihd))
		}
		add("\n")
	}
	return string(b)
}

// CheckInvariants verifies the tracker's internal consistency — the
// runtime-layer form of the paper's structural invariants:
//
//   - Lemma 5.1 symmetry: X ∈ A.IDO ⟺ A ∈ X.DOM, both directions;
//   - resolved assumptions have drained DOM sets (Equations 9/14 and
//     rollback withdrawal);
//   - every live interval is speculative with a non-empty IDO
//     (Equation 20's contrapositive), held strictly ascending (the
//     binary searches rely on it);
//   - per-process live chains have subset-ordered IDO sets (the heart of
//     Theorem 5.1);
//   - sharding integrity: every interval is stored in its process's
//     shard, and every DOM entry points at a registered interval.
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
				a, ok := t.aidShard(x).aids[x]
				if !ok || !slices.Contains(a.dom, iv) {
					return fmt.Errorf("lemma 5.1: %v ∈ %v.IDO but %v ∉ %v.DOM", x, iv.id, iv.id, x)
				}
			}
		}
		for _, a := range s.aids {
			if a.status != Unresolved && len(a.dom) != 0 {
				return fmt.Errorf("resolved %v (%v) retains DOM %v", a.id, a.status, domIDs(a.dom))
			}
			for _, iv := range a.dom {
				if t.procShard(iv.proc).intervals[iv.id] != iv {
					return fmt.Errorf("%v.DOM references unregistered interval %v", a.id, iv.id)
				}
				if !hasAID(iv.ido, a.id) {
					return fmt.Errorf("lemma 5.1: %v ∈ %v.DOM but %v ∉ %v.IDO", iv.id, a.id, a.id, iv.id)
				}
			}
		}
		for _, ps := range s.procs {
			for i := 1; i < len(ps.live); i++ {
				prev, cur := ps.live[i-1], ps.live[i]
				for _, x := range prev.ido {
					if !hasAID(cur.ido, x) {
						return fmt.Errorf("theorem 5.1: %v.IDO ⊄ %v.IDO in %v", prev.id, cur.id, ps.id)
					}
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

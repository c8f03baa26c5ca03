package tracker

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"hope/internal/ids"
	"hope/internal/obs"
)

// MaxShards caps the shard count so a shard set fits one uint64 bitmask
// (TagClass validity masks, lock-set masks, footprint escape checks).
// obs.MaxShards mirrors this for the per-shard gauge arrays.
const MaxShards = obs.MaxShards

// shard is one independent slice of the tracker: assumptions whose AID
// hashes here, processes whose id hashes here, and the intervals of
// those processes (an interval always lives in its process's shard).
// Each shard has its own lock and its own resolution epoch, so
// operations on disjoint shards never contend and a classification
// verdict can be revalidated per shard with atomic loads.
type shard struct {
	mu sync.RWMutex

	// epoch is this shard's resolution epoch: it advances, under mu held
	// for writing, whenever an assumption homed here changes resolution
	// state — exactly the mutations that can change a tag set's
	// classification. Verdicts record the epochs of every shard their
	// dependency walk visited (TagClass.mask/sum) and stay valid while
	// those epochs are unchanged. Starts at 1; like the old global
	// epoch, 0 is never a live value.
	epoch atomic.Uint64

	// aids holds the records of the assumptions homed here that are still
	// live: unresolved or spec-affirmed. A settle that makes one terminal
	// retires it into verdicts when it commits (commitCtx).
	aids      map[ids.AID]*aidState
	intervals map[ids.Interval]*intervalState
	procs     map[ids.Proc]*procState
	// verdicts holds each retired assumption's verdict, two bits indexed
	// by AID >> log2(shards) (see retired). retiring lists the AIDs homed
	// here that the current critical section made terminal, for
	// commitCtx to retire; it keeps its capacity from one settle to the
	// next.
	verdicts pages
	retiring []ids.AID
	// finalized records the intervals of processes homed here that were
	// made definite, for the engine's requeue-sanity assertion (a
	// finalized receive must never be redelivered).
	finalized map[ids.Interval]struct{}

	// pendingProcs counts the processes homed here with an unapplied
	// rollback target (procState.hasPending). It changes only under mu
	// held for writing, in the critical sections that install or take a
	// target, so PendingRollback — asked around every engine primitive,
	// almost always answered "no" — can skip the lock when it reads zero.
	pendingProcs atomic.Int32
}

// pages is a sparse array of 2-bit codes over dense identifiers, 4096
// codes to a pointer-free 1 KiB page that is allocated on first write —
// so the collector never scans it — and never freed. A code is written
// once.
type pages map[uint64]*page

type page [4096 * 2 / 64]uint64

// get returns the code at i (0 if never written).
func (ps pages) get(i uint64) uint8 {
	p := ps[i/4096]
	if p == nil {
		return 0
	}
	b := i % 4096 * 2
	return uint8(p[b/64] >> (b % 64) & 3)
}

// set writes code c at i.
func (ps pages) set(i uint64, c uint8) {
	p := ps[i/4096]
	if p == nil {
		p = new(page)
		ps[i/4096] = p
	}
	b := i % 4096 * 2
	p[b/64] |= uint64(c) << (b % 64)
}

// Option configures a Tracker at construction.
type Option func(*config)

type config struct{ shards int }

// WithShards sets the shard count. Values are rounded up to a power of
// two and clamped to [1, MaxShards]; n <= 0 selects the next power of
// two >= GOMAXPROCS.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

func normalizeShards(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := 1
	for s < n && s < MaxShards {
		s <<= 1
	}
	return s
}

func bit(i uint64) uint64 { return 1 << i }

// aidIdx and procIdx map identifiers to their home shard. Both id kinds
// are dense counters, so masking the low bits spreads them round-robin,
// and aidSlot — the bits left — numbers a shard's own AIDs densely.
func (t *Tracker) aidIdx(x ids.AID) uint64     { return uint64(x) & t.smask }
func (t *Tracker) aidSlot(x ids.AID) uint64    { return uint64(x) >> t.sbits }
func (t *Tracker) procIdx(p ids.Proc) uint64   { return uint64(p) & t.smask }
func (t *Tracker) aidShard(x ids.AID) *shard   { return t.shards[t.aidIdx(x)] }
func (t *Tracker) procShard(p ids.Proc) *shard { return t.shards[t.procIdx(p)] }

// tagsMask returns the set of home shards of a tag set.
func (t *Tracker) tagsMask(tags []ids.AID) uint64 {
	var m uint64
	for _, x := range tags {
		m |= bit(t.aidIdx(x))
	}
	return m
}

// lockW acquires the write locks of every shard in mask in ascending
// shard-index order. Every multi-shard acquisition in the tracker —
// read or write, home set or all-shard — uses this order, so two
// operations with overlapping footprints can never deadlock.
func (t *Tracker) lockW(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		t.shards[bits.TrailingZeros64(m)].mu.Lock()
	}
}

func (t *Tracker) unlockW(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		t.shards[bits.TrailingZeros64(m)].mu.Unlock()
	}
}

func (t *Tracker) lockR(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		t.shards[bits.TrailingZeros64(m)].mu.RLock()
	}
}

func (t *Tracker) unlockR(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		t.shards[bits.TrailingZeros64(m)].mu.RUnlock()
	}
}

// epochSum adds up the epochs of the shards in mask with atomic loads —
// no locks. Shard epochs are monotonically non-decreasing, so the sum
// is unchanged if and only if every individual epoch is unchanged;
// that makes one uint64 a sufficient validity stamp for a whole visited
// set (see TagClass).
func (t *Tracker) epochSum(mask uint64) uint64 {
	var sum uint64
	for m := mask; m != 0; m &= m - 1 {
		sum += t.shards[bits.TrailingZeros64(m)].epoch.Load()
	}
	return sum
}

// errEscape is the internal signal that an operation's footprint
// reached a shard outside the currently locked set. The operation is
// retried under an all-shard lock; errEscape never reaches callers.
var errEscape = fmt.Errorf("hope/tracker: footprint escaped locked shards")

// settleCtx is the two-phase settle protocol shared by every mutating
// operation. Phase one (collect) locks only the operation's home shards
// and runs op, which must establish — before mutating anything — that
// its full footprint lies inside the locked set (via a footprint walk
// or equivalent checks) and return errEscape otherwise. Phase two
// (commit) runs inside commitCtx while the locks are still held: every
// shard whose assumptions changed resolution state gets its epoch
// bumped, and the global settle sequence number advances. If op
// escaped, the locks are dropped and op is retried under an all-shard
// write lock, where escape is impossible.
//
// Lock ordering: both phases acquire shard locks in ascending index
// order via lockW, so concurrent settles with overlapping footprints
// serialize instead of deadlocking. A settle holds every lock of its
// footprint simultaneously for the whole mutation, which is what lets
// the per-shard epoch stamps stand in for the old single-lock epoch in
// the coherence argument (DESIGN.md "Sharded tracker").
func (t *Tracker) settleCtx(ctx *opCtx, home uint64, op func(locked uint64) error) error {
	if home != t.allMask {
		t.lockW(home)
		err := op(home)
		t.commitCtx(ctx, home)
		t.unlockW(home)
		if err != errEscape {
			return err
		}
		t.obs.ShardContention()
	}
	t.lockW(t.allMask)
	err := op(t.allMask)
	t.commitCtx(ctx, t.allMask)
	t.unlockW(t.allMask)
	if err == errEscape {
		panic("hope/tracker: footprint escaped with every shard locked")
	}
	return err
}

// commitCtx seals one critical section of a settle: each assumption the
// section made terminal is retired, and each shard the operation dirtied
// (resolved an assumption homed there) has its epoch advanced while its
// write lock is still held, so a reader that revalidates against the old
// epoch sum is guaranteed the mutation has not happened yet from its
// lock-ordered point of view. The dirty set must be inside the locked
// set — the panic is the runtime check that footprint walks stay
// conservative.
func (t *Tracker) commitCtx(ctx *opCtx, locked uint64) {
	d := ctx.dirty
	if d == 0 {
		return
	}
	if d&^locked != 0 {
		panic(fmt.Sprintf("hope/tracker: settle dirtied shards %#x outside locked set %#x", d, locked))
	}
	for m := d; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		s := t.shards[i]
		for _, x := range s.retiring {
			t.retire(s, x)
		}
		s.retiring = s.retiring[:0]
		t.obs.ShardEpoch(i, s.epoch.Add(1))
		t.obs.ShardAssumptions(i, len(s.aids))
	}
	ctx.dirty = 0
}

// retire replaces the record of an assumption this critical section made
// terminal with two bits in its home shard's verdict pages. Equations
// 9/14 drained its DOM for good, so all it has left to answer is its
// verdict: Status, the dependency walk and resolve read the bits, and
// no path rebuilds a record for it (see live). Moves no epoch — every
// answer about X stays the same.
func (t *Tracker) retire(s *shard, x ids.AID) {
	a := s.aids[x]
	if len(a.dom) != 0 {
		return
	}
	code := retiredAffirmed
	switch {
	case a.systemDenied:
		code = retiredSystemDenied
	case a.status == Denied:
		code = retiredDenied
	}
	s.verdicts.set(t.aidSlot(x), uint8(code))
	delete(s.aids, x)
}

// footprint is the read-only conservative closure walk of the collect
// phase: starting from the assumptions and processes a mutation names,
// it visits everything the mutation could possibly touch — dependent
// intervals through DOM, whole live chains (rollback discards a chain
// suffix), each interval's IDO/spec-affirmed/IHD assumptions, and the
// deny cascades reachable through IHD — and reports false the moment it
// reaches state homed outside the locked shard set. Nothing is mutated:
// on escape the operation unlocks, escalates, and re-runs.
//
// Two visit strengths keep the closure tight: touch means the mutation
// may write the assumption's bookkeeping (DOM membership, claim flags,
// a terminal status flip) but never follows its edges, so admitting it
// is one look at its home shard; resolve means the assumption may be
// definitively denied here, which cascades into its DOM and is walked
// once per assumption.
//
// A settle builds its footprint as a value on its own stack: the
// seen-sets are inline until a walk outgrows them.
type footprint struct {
	t        *Tracker
	locked   uint64
	resolved visited[ids.AID]
	procs    visited[ids.Proc]
}

func (f *footprint) in(idx uint64) bool { return f.locked&bit(idx) != 0 }

// touchAIDs admits bookkeeping writes to the state of every AID in xs.
func (f *footprint) touchAIDs(xs []ids.AID) bool {
	for _, x := range xs {
		if !f.in(f.t.aidIdx(x)) {
			return false
		}
	}
	return true
}

// resolveAID admits a definitive deny (or affirm) of x, including the
// rollback cascade through its DOM.
func (f *footprint) resolveAID(x ids.AID) bool {
	if !f.resolved.add(x) {
		return true
	}
	idx := f.t.aidIdx(x)
	if !f.in(idx) {
		return false
	}
	a, ok := f.t.shards[idx].aids[x]
	if !ok {
		return true
	}
	for _, b := range a.dom {
		if !f.visitProc(b.proc) {
			return false
		}
	}
	return true
}

// visitProc admits discarding or finalizing intervals of p's live
// chain. The whole chain is visited (a rollback discards an arbitrary
// suffix), and each interval's assumption sets are admitted: IDO and
// spec-affirmed members may have bookkeeping written; IHD members may
// be definitively denied at finalize, cascading. The current interval's
// IDO holds every earlier one's (Theorem 5.1), so it is admitted once.
func (f *footprint) visitProc(p ids.Proc) bool {
	if !f.procs.add(p) {
		return true
	}
	idx := f.t.procIdx(p)
	if !f.in(idx) {
		return false
	}
	ps, ok := f.t.shards[idx].procs[p]
	if !ok {
		return true
	}
	if cur := ps.current(); cur != nil && !f.touchAIDs(cur.ido) {
		return false
	}
	for iv := ps.first; iv != nil; iv = iv.next {
		if !f.touchAIDs(iv.specAffirmed) {
			return false
		}
		for _, x := range iv.ihd {
			if !f.resolveAID(x) {
				return false
			}
		}
	}
	return true
}

// Shards reports the tracker's shard count.
func (t *Tracker) Shards() int { return len(t.shards) }

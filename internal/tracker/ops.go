package tracker

import (
	"slices"
	"time"

	"hope/internal/ids"
	"hope/internal/obs"
)

// lifetime returns iv's age for the speculation-lifetime histogram (0
// when unobserved, so the no-op path never reads the clock).
func (t *Tracker) lifetime(iv *intervalState) int64 {
	if t.obs == nil || iv.openedAt.IsZero() {
		return 0
	}
	return int64(time.Since(iv.openedAt))
}

// GuessOutcome is the result of a Guess call.
type GuessOutcome struct {
	// Result is the value the guess primitive returns: True speculatively
	// (or definitively, if the AID is already affirmed), False if already
	// denied.
	Result bool
	// Interval names the opened interval (NoInterval when the guess
	// short-circuited on a resolved AID).
	Interval ids.Interval
}

// Guess executes guess(X) for process p (Section 5.1). logIndex is the
// replay-log position of the guess, used as the rollback restart point.
func (t *Tracker) Guess(p ids.Proc, x ids.AID, logIndex int) (GuessOutcome, error) {
	iv, orphan, err := t.open(p, []ids.AID{x}, logIndex, false)
	return GuessOutcome{Result: err == nil && !orphan, Interval: iv}, err
}

// DeliverOutcome is the result of a Deliver call.
type DeliverOutcome struct {
	// Orphan reports the message must be discarded: a transitive tag
	// dependency is denied.
	Orphan bool
	// Interval names the implicit-guess interval opened for the delivery
	// (NoInterval when the tag set resolved empty).
	Interval ids.Interval
}

// Deliver performs the implicit guesses for receiving a message tagged
// with tags (§3, §7). logIndex is the replay-log position of the receive.
func (t *Tracker) Deliver(p ids.Proc, tags []ids.AID, logIndex int) (DeliverOutcome, error) {
	iv, orphan, err := t.open(p, tags, logIndex, true)
	return DeliverOutcome{Orphan: orphan, Interval: iv}, err
}

// open makes p depend on tags (Section 5.1, Equations 1–5): the tag set
// is expanded to its unresolved transitive dependencies and, if any
// remain, one interval is opened on them. orphan reports a denied
// dependency — guess(X) returns False, a message is discarded. An
// explicit guess names one X and brings a never-seen X into existence,
// unresolved; an implicit one reads an unknown tag as settled. The two
// are counted and observed under different names.
//
// Home shards: the process's (new interval, live chain) and the tags';
// the dependency walk escalates if their transitive expansion crosses
// out. Opening resolves nothing, so the settle has nothing to finish.
func (t *Tracker) open(p ids.Proc, tags []ids.AID, logIndex int, implicit bool) (iv ids.Interval, orphan bool, err error) {
	var ctx opCtx
	var depBuf [4]ids.AID // the unresolved dependencies, usually one
	err = t.settleCtx(&ctx, bit(t.procIdx(p))|t.tagsMask(tags), func(locked uint64) error {
		ps, err := t.procAt(p)
		if err != nil {
			return err
		}
		if ps.pending != nil {
			return ErrRolledBack
		}
		x := ids.NoAID // the one AID an explicit guess names
		if !implicit {
			x = tags[0]
			t.aid(x)
		}
		deps, orph, escaped := t.resolveDepsMasked(tags, locked, depBuf[:0])
		if escaped {
			return errEscape
		}
		st := &t.procShard(p).stats
		orphan = orph
		switch {
		case orphan && implicit:
			st.Orphans++
			t.obs.Emit(obs.KOrphanDropped, p, x, ids.NoInterval, 0)
		case orphan:
			st.ShortGuesses++
			t.obs.Emit(obs.KGuessShort, p, x, ids.NoInterval, 0)
		case len(deps) == 0 && !implicit:
			st.ShortGuesses++
			t.obs.Emit(obs.KGuessShort, p, x, ids.NoInterval, 1)
		case len(deps) > 0:
			// Opening the interval records it in the DOM of every dep (all
			// inside locked — the walk found them there) and of every
			// assumption inherited from the enclosing interval; those
			// inherited homes must be locked too.
			if cur := ps.current(); cur != nil {
				for _, y := range cur.ido {
					if locked&bit(t.aidIdx(y)) == 0 {
						return errEscape
					}
				}
			}
			iv = t.openIntervalLocked(ps, logIndex, implicit, deps).id
			if implicit {
				st.ImplicitGuesses++
				t.obs.Emit(obs.KMsgTainted, p, x, iv, int64(len(deps)))
			} else {
				st.Guesses++
				t.obs.Emit(obs.KGuessOpened, p, x, iv, 0)
			}
		}
		return nil
	})
	if err != nil {
		return ids.NoInterval, false, err
	}
	return iv, orphan, nil
}

// verdict is what a resolution asks of X.
type verdict uint8

const (
	affirm verdict = iota
	deny
	freeOf
)

// String is the operation name the stall hook sees.
func (v verdict) String() string { return [...]string{"affirm", "deny", "free_of"}[v] }

// Affirm executes affirm(X) for process p (Section 5.2, Equations 7–14).
func (t *Tracker) Affirm(p ids.Proc, x ids.AID) error { return t.resolveFor(p, x, affirm) }

// Deny executes deny(X) for process p (Section 5.3, Equations 15–16).
func (t *Tracker) Deny(p ids.Proc, x ids.AID) error { return t.resolveFor(p, x, deny) }

// FreeOf executes free_of(X) for process p (Section 5.4, Equations 17–19),
// atomically: the dependence test and the induced affirm/deny happen in
// one critical section.
func (t *Tracker) FreeOf(p ids.Proc, x ids.AID) error { return t.resolveFor(p, x, freeOf) }

// ApplyVerdict applies a terminal resolution decided elsewhere — a
// distributed Affirm/Deny received over the wire — on the system's
// behalf: no calling process, so no speculative variant. The operation
// is idempotent — re-applying an already-settled verdict in the same
// direction is a no-op — and tolerant of §5.6 system denies superseding
// a remote affirm, so verdict gossip between nodes terminates without
// loops. A genuinely contradictory verdict returns ErrConflict.
func (t *Tracker) ApplyVerdict(x ids.AID, affirmed bool) error {
	if affirmed {
		return t.resolve(ids.NoProc, x, affirm)
	}
	return t.resolve(ids.NoProc, x, deny)
}

// resolveFor is resolve for a calling process. NoProc, the zero Proc,
// is not one: it must not reach resolve, where it means the system.
func (t *Tracker) resolveFor(p ids.Proc, x ids.AID, v verdict) error {
	if p == ids.NoProc {
		return ErrUnknownProc
	}
	return t.resolve(p, x, v)
}

// resolve is the one entry to Section 5's resolution rules: process p —
// or, when p is NoProc, the system — asks v of X. The case analysis on
// (X's state, is the resolver speculative, does it depend on X) is
// affirmLocked and denyLocked; this is everything around it.
//
// The settle's footprint is p's live chain plus X's resolution closure:
// draining X.DOM can finalize dependent intervals, whose IHD members
// may be definitively denied, cascading further — all admitted (or
// escalated) by the footprint walk before anything is written.
func (t *Tracker) resolve(p ids.Proc, x ids.AID, v verdict) error {
	home := bit(t.aidIdx(x))
	if p != ids.NoProc {
		// Only a process can be stalled: the hook runs in its goroutine.
		if s := t.stall; s != nil {
			s(p, v.String())
		}
		home |= bit(t.procIdx(p))
	}
	ctx := t.newOpCtx()
	err := t.settleCtx(ctx, home, func(locked uint64) error {
		f := footprint{t: t, locked: locked}
		var cur *intervalState // the resolver's interval; nil = definite
		if p != ids.NoProc {
			ps, err := t.procAt(p)
			if err != nil {
				return err
			}
			if ps.pending != nil {
				return ErrRolledBack
			}
			if !f.visitProc(p) {
				return errEscape
			}
			cur = ps.current()
		}
		if !f.resolveAID(x) {
			return errEscape
		}
		a, v := t.aid(x), v // a copy: free_of rewrites it
		if v == freeOf {
			t.aidShard(x).stats.FreeOfs++
			t.obs.Emit(obs.KFreeOf, p, x, ids.NoInterval, 0)
			switch {
			case a.status == Denied:
				return nil // re-execution after the constraint violation was handled
			case cur != nil && hasAID(cur.ido, x):
				v = deny // Equation 19 (definite: X ∈ A.IDO)
			default:
				v = affirm // Equations 17–18
			}
		}
		if v == deny {
			return t.denyLocked(p, cur, a, ctx)
		}
		return t.affirmLocked(p, cur, a, ctx)
	})
	t.finish(ctx)
	return err
}

// affirmLocked is Equations 7–14. A definite resolver (cur == nil)
// affirms X outright; a speculative one first trades X for its own
// dependencies — X becomes SpecAffirmed with cur.IDO−{X} as replacement,
// which every dependent of X inherits. Either way X then leaves the IDO
// of every interval in X.DOM, and an interval left depending on nothing
// is finalized.
func (t *Tracker) affirmLocked(p ids.Proc, cur *intervalState, a *aidState, ctx *opCtx) error {
	switch {
	case a.status == Affirmed || a.status == SpecAffirmed:
		return nil // redundant (§5.2)
	case a.status == Denied && a.systemDenied:
		return nil // stale re-execution after, or superseded by, a §5.6 system deny
	case a.status == Denied:
		return ErrConflict
	case a.claimed && p != ids.NoProc:
		// A local speculative deny has claimed X. Another process's
		// affirm is the §5.2 user error; the system's verdict overrides
		// the claim (the claimant's IHD entry is skipped at its finalize).
		return ErrConflict
	}

	x, st := a.id, t.aidShard(a.id)
	a.claimed = true
	if cur == nil {
		t.setStatus(a, Affirmed, ctx)
		st.stats.DefiniteAffirms++
		t.obs.Emit(obs.KAffirmed, p, x, ids.NoInterval, 0)
	} else {
		t.setStatus(a, SpecAffirmed, ctx)
		a.affirmer = cur.id
		a.replacement = withoutAID(slices.Clone(cur.ido), x)
		cur.specAffirmed = append(cur.specAffirmed, x)
		st.stats.SpecAffirms++
		t.obs.Emit(obs.KSpecAffirmed, p, x, cur.id, 0)
	}
	// Equations 9/14: X.DOM is taken whole — nothing comes to depend on X
	// once it is resolved. A finalize below can cascade into a rollback of
	// a member not reached yet, hence the status check.
	dom := a.dom
	a.dom = nil
	for _, b := range dom {
		if b.status != speculative {
			continue
		}
		for _, y := range a.replacement {
			t.dependLocked(b, y)
		}
		dropDep(b, x)
		if len(b.ido) == 0 {
			t.finalizeLocked(b, ctx)
		}
	}
	return nil
}

// denyLocked is Equations 15–16: definite when the resolver is definite
// or itself depends on X, otherwise a claim on X that becomes a deny
// when the resolver's interval finalizes.
func (t *Tracker) denyLocked(p ids.Proc, cur *intervalState, a *aidState, ctx *opCtx) error {
	switch {
	case a.status == Denied:
		return nil // redundant (§5.2)
	case a.claimed && a.status == Unresolved && p != ids.NoProc:
		// Redundant with the pending speculative deny that claimed X. The
		// system's verdict instead settles X early, and the claimant's
		// IHD entry becomes the redundant one.
		return nil
	case a.status == Affirmed || a.status == SpecAffirmed:
		return ErrConflict
	}
	if cur == nil || hasAID(cur.ido, a.id) {
		t.denyDefiniteLocked(p, a, ctx)
		return nil
	}
	// Equation 16: only the claim and the IHD membership change — no
	// assumption changes resolution state, so no epoch moves and cached
	// verdicts stay valid; the watcher still fires for pessimistic
	// waiters.
	a.claimed = true
	a.claimedBy = cur.id
	cur.ihd = append(cur.ihd, a.id)
	ctx.resolved = true
	t.aidShard(a.id).stats.SpecDenies++
	t.obs.Emit(obs.KSpecDenied, p, a.id, cur.id, 0)
	return nil
}

// denyDefiniteLocked is Equation 15, attributed to p (NoProc = the
// system): X is Denied and every interval in X.DOM — and, per Theorem
// 5.1, every later interval of the same process — is discarded.
func (t *Tracker) denyDefiniteLocked(p ids.Proc, a *aidState, ctx *opCtx) {
	a.claimed = true
	t.setStatus(a, Denied, ctx)
	t.aidShard(a.id).stats.DefiniteDenies++
	t.obs.Emit(obs.KDenied, p, a.id, ids.NoInterval, 0)
	t.rollbackDependentsLocked(a, ctx)
}

// AttachEffect registers commit/abort callbacks on p's current interval.
// If p is definite the effect is immediate: commit runs before the call
// returns and abort is discarded. Touches only p's home shard.
func (t *Tracker) AttachEffect(p ids.Proc, commit, abort func()) error {
	s := t.procShard(p)
	s.mu.Lock()
	ps, ok := s.procs[p]
	if !ok {
		s.mu.Unlock()
		return ErrUnknownProc
	}
	if ps.pending != nil {
		s.mu.Unlock()
		return ErrRolledBack
	}
	cur := ps.current()
	if cur == nil {
		s.mu.Unlock()
		if commit != nil {
			commit()
		}
		return nil
	}
	if commit != nil {
		cur.commits = append(cur.commits, commit)
	}
	if abort != nil {
		cur.aborts = append(cur.aborts, abort)
	}
	s.mu.Unlock()
	return nil
}

// finalizeLocked makes iv definite (Section 5.5, Equations 20–23):
// pending speculative denies become definite, speculatively affirmed AIDs
// become affirmed, and the interval is handed to the settle, whose finish
// releases its buffered effects. Caller holds the settle's locked set,
// which the footprint walk guarantees covers iv's shard and every
// assumption it can flip.
func (t *Tracker) finalizeLocked(iv *intervalState, ctx *opCtx) {
	if iv.status != speculative {
		return
	}
	iv.status = finalized
	ctx.resolved = true
	sh := t.procShard(iv.proc)
	sh.finalized[iv.id] = struct{}{}
	sh.stats.Finalized++
	t.obs.Emit(obs.KCommitted, iv.proc, ids.NoAID, iv.id, t.lifetime(iv))
	if n := len(iv.commits); n > 0 {
		t.obs.Emit(obs.KEffectReleased, iv.proc, ids.NoAID, iv.id, int64(n))
	}
	removeInterval(sh.procs[iv.proc], iv)

	for _, x := range iv.specAffirmed {
		a := t.aid(x)
		if a.status == SpecAffirmed && a.affirmer == iv.id {
			t.setStatus(a, Affirmed, ctx)
		}
	}
	// Unreachable from here on (no shard map, no live chain), so finish
	// reads iv.commits outside the locks.
	ctx.addFinalized(iv)
	iv.aborts = nil
	delete(sh.intervals, iv.id)

	// Equation 22.
	for _, x := range iv.ihd {
		a := t.aid(x)
		if a.status == Denied || a.status == Affirmed {
			continue
		}
		a.claimedBy = ids.NoInterval
		t.denyDefiniteLocked(iv.proc, a, ctx)
	}
}

// rollbackDependentsLocked discards every interval in X.DOM, which X —
// denied — keeps no more. Discarding one member's chain suffix can
// discard a later member, hence the status check.
func (t *Tracker) rollbackDependentsLocked(a *aidState, ctx *opCtx) {
	dom := a.dom
	a.dom = nil
	for _, b := range dom {
		if b.status == speculative {
			t.rollbackFromLocked(b, ctx)
		}
	}
}

// rollbackFromLocked discards iv and every later speculative interval of
// its process (Equation 24 + Theorem 5.1), recording the restart target.
func (t *Tracker) rollbackFromLocked(iv *intervalState, ctx *opCtx) {
	sh := t.procShard(iv.proc)
	ps := sh.procs[iv.proc]
	pos := -1
	for i, b := range ps.live {
		if b == iv {
			pos = i
			break
		}
	}
	if pos < 0 {
		return // already discarded by an earlier cascade
	}
	suffix := ps.live[pos:]
	ps.live = ps.live[:pos]
	for i := len(suffix) - 1; i >= 0; i-- {
		b := suffix[i]
		b.status = rolledBack
		ctx.resolved = true
		sh.stats.RolledBack++
		t.obs.Emit(obs.KRolledBack, b.proc, ids.NoAID, b.id, t.lifetime(b))
		if n := len(b.aborts); n > 0 {
			t.obs.Emit(obs.KEffectAborted, b.proc, ids.NoAID, b.id, int64(n))
		}
		for _, x := range b.ido {
			ax := t.aid(x)
			ax.dom = withoutInterval(ax.dom, b)
		}
		for _, x := range b.specAffirmed {
			ax := t.aid(x)
			if ax.status == SpecAffirmed && ax.affirmer == b.id {
				t.setStatus(ax, Denied, ctx)
				ax.systemDenied = true
			}
		}
		for _, x := range b.ihd {
			ax := t.aid(x)
			if ax.claimedBy == b.id {
				ax.claimed = false
				ax.claimedBy = ids.NoInterval
			}
		}
		// Aborts run newest-first, like deferred compensations.
		ctx.after = append(ctx.after, b.aborts...)
		delete(sh.intervals, b.id)
	}
	// Merge the target under the process's shard lock, in the same
	// critical section that discarded the intervals: delivery can never
	// race a later, deeper rollback out of order.
	tgt := RollbackTarget{LogIndex: iv.logIndex, Implicit: iv.implicit}
	if ps.pending == nil || tgt.LogIndex < ps.pending.LogIndex {
		if ps.pending == nil {
			sh.pendingProcs.Add(1)
		}
		cp := tgt
		ps.pending = &cp
	}
	ctx.notifyProc(iv.proc, ps.hooks)
}

func removeInterval(ps *procState, iv *intervalState) {
	for i, b := range ps.live {
		if b == iv {
			ps.live = append(ps.live[:i], ps.live[i+1:]...)
			return
		}
	}
}

// denySystem definitively denies x on the system's behalf (§5.6) if it
// is still unresolved and unclaimed when its shard lock is taken, and
// marks it system-denied: a replayed affirm of it is stale, not a
// conflict. Returns whether it acted.
func (t *Tracker) denySystem(x ids.AID, ctx *opCtx) bool {
	acted := false
	_ = t.settleCtx(ctx, bit(t.aidIdx(x)), func(locked uint64) error {
		f := footprint{t: t, locked: locked}
		if !f.resolveAID(x) {
			return errEscape
		}
		a := t.aidShard(x).aids[x]
		if a == nil || a.status != Unresolved || a.claimed {
			return nil // resolved by an earlier sweep's cascade
		}
		a.systemDenied = true
		t.denyDefiniteLocked(ids.NoProc, a, ctx)
		acted = true
		return nil
	})
	return acted
}

// forceDiscard rolls back p's whole live chain if it still has one when
// its shard lock is taken. Returns whether it acted.
func (t *Tracker) forceDiscard(p ids.Proc, ctx *opCtx) bool {
	acted := false
	_ = t.settleCtx(ctx, bit(t.procIdx(p)), func(locked uint64) error {
		f := footprint{t: t, locked: locked}
		if !f.visitProc(p) {
			return errEscape
		}
		ps := t.procShard(p).procs[p]
		if ps == nil || len(ps.live) == 0 {
			return nil
		}
		t.rollbackFromLocked(ps.live[0], ctx)
		acted = true
		return nil
	})
	return acted
}

// DenyAllUnresolved resolves every outstanding assumption pessimistically
// — the deny-all-unresolved drain policy of a graceful shutdown
// (engine.ShutdownDrain). It alternates two passes until a fixpoint:
// definitively deny every unresolved, unclaimed assumption (cascading
// rollbacks as usual), then discard any speculative intervals that
// survive (possible when intervals hold each other's assumptions claimed
// via speculative denies), which releases their claims for the next deny
// pass. Afterwards every assumption is Affirmed or Denied and every
// process is definite. Denials are system-level (§5.6): replayed affirms
// of a swept assumption are treated as stale re-executions, not
// conflicts.
//
// Candidates are collected shard by shard, each under that shard's read
// lock, and swept in ascending identifier order, so the sweep sequence —
// and therefore the cascade order and the emitted event stream — is
// independent of the shard count. Each sweep is its own settle;
// processes are quiesced by the caller, so no settle observes the drain
// half-done in a way that matters, and the rollback notifications and
// effects run once at the end. Returns the number of drain actions taken (assumptions denied
// plus interval chains force-discarded); zero means the tracker was
// already fully settled and no rollback was issued.
func (t *Tracker) DenyAllUnresolved() int {
	ctx := t.newOpCtx()
	denied := 0
	for {
		progress := false
		cands := sweepOrder(t.shards, func(s *shard, out []ids.AID) []ids.AID {
			for id, a := range s.aids {
				if a.status == Unresolved && !a.claimed {
					out = append(out, id)
				}
			}
			return out
		})
		for _, x := range cands {
			if t.denySystem(x, ctx) {
				denied++
				progress = true
			}
		}
		if progress {
			continue
		}
		// No deniable assumption left, but claim cycles may keep
		// intervals alive: discard them directly, releasing their claims.
		procs := sweepOrder(t.shards, func(s *shard, out []ids.Proc) []ids.Proc {
			for id, ps := range s.procs {
				if len(ps.live) > 0 {
					out = append(out, id)
				}
			}
			return out
		})
		for _, p := range procs {
			if t.forceDiscard(p, ctx) {
				denied++
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	t.finish(ctx)
	return denied
}

// sweepOrder gathers drain candidates from every shard, each scanned
// under its own read lock (scans read only state homed there), in
// ascending identifier order — the shard-count-independent sweep order.
func sweepOrder[T ~uint64](shards []*shard, scan func(s *shard, out []T) []T) []T {
	var all []T
	for _, s := range shards {
		s.mu.RLock()
		all = scan(s, all)
		s.mu.RUnlock()
	}
	slices.Sort(all)
	return all
}

// LiveIntervals reports p's speculative interval count (diagnostics).
func (t *Tracker) LiveIntervals(p ids.Proc) int {
	s := t.procShard(p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	ps, ok := s.procs[p]
	if !ok {
		return 0
	}
	return len(ps.live)
}

// CurrentInterval returns p's current interval, or NoInterval.
func (t *Tracker) CurrentInterval(p ids.Proc) ids.Interval {
	s := t.procShard(p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	ps, ok := s.procs[p]
	if !ok {
		return ids.NoInterval
	}
	if cur := ps.current(); cur != nil {
		return cur.id
	}
	return ids.NoInterval
}

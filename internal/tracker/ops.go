package tracker

import (
	"sort"
	"sync"
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
//
// Home shards: the process's (new interval, live chain) and X's; the
// dependency walk escalates if X's transitive expansion crosses out.
func (t *Tracker) Guess(p ids.Proc, x ids.AID, logIndex int) (GuessOutcome, error) {
	ctx := t.newOpCtx()
	var out GuessOutcome
	home := bit(t.procIdx(p)) | bit(t.aidIdx(x))
	err := t.settleCtx(ctx, home, func(locked uint64) error {
		out = GuessOutcome{}
		ps, err := t.procAt(p)
		if err != nil {
			return err
		}
		if ps.pending != nil {
			return ErrRolledBack
		}
		sh := t.procShard(p)
		a := t.aid(x)
		switch a.status {
		case Affirmed:
			sh.stats.ShortGuesses++
			out.Result = true
			return nil
		case Denied:
			sh.stats.ShortGuesses++
			return nil
		}
		deps, orphan, escaped := t.resolveDepsMasked([]ids.AID{x}, locked)
		if escaped {
			return errEscape
		}
		if orphan {
			sh.stats.ShortGuesses++
			return nil
		}
		if len(deps) == 0 {
			sh.stats.ShortGuesses++
			out.Result = true
			return nil
		}
		// Opening the interval records it in the DOM of every dep (all
		// inside locked — the walk found them there) and of every
		// assumption inherited from the enclosing interval; those
		// inherited homes must be locked too.
		if cur := ps.current(); cur != nil {
			ok := cur.ido.Range(func(y ids.AID) bool { return locked&bit(t.aidIdx(y)) != 0 })
			if !ok {
				return errEscape
			}
		}
		iv := t.openIntervalLocked(ps, logIndex, false, deps)
		sh.stats.Guesses++
		out = GuessOutcome{Result: true, Interval: iv.id}
		return nil
	})
	if err != nil {
		return GuessOutcome{}, err
	}
	if out.Interval != ids.NoInterval {
		t.obs.Emit(obs.KGuessOpened, p, x, out.Interval, 0)
	} else {
		var v int64
		if out.Result {
			v = 1
		}
		t.obs.Emit(obs.KGuessShort, p, x, ids.NoInterval, v)
	}
	t.finish(ctx)
	return out, nil
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
	ctx := t.newOpCtx()
	var out DeliverOutcome
	var depCount int
	home := bit(t.procIdx(p)) | t.tagsMask(tags)
	err := t.settleCtx(ctx, home, func(locked uint64) error {
		out = DeliverOutcome{}
		ps, err := t.procAt(p)
		if err != nil {
			return err
		}
		if ps.pending != nil {
			return ErrRolledBack
		}
		deps, orphan, escaped := t.resolveDepsMasked(tags, locked)
		if escaped {
			return errEscape
		}
		if orphan {
			t.procShard(p).stats.Orphans++
			out.Orphan = true
			return nil
		}
		if len(deps) == 0 {
			return nil
		}
		if cur := ps.current(); cur != nil {
			ok := cur.ido.Range(func(y ids.AID) bool { return locked&bit(t.aidIdx(y)) != 0 })
			if !ok {
				return errEscape
			}
		}
		iv := t.openIntervalLocked(ps, logIndex, true, deps)
		t.procShard(p).stats.ImplicitGuesses++
		depCount = len(deps)
		out.Interval = iv.id
		return nil
	})
	if err != nil {
		return DeliverOutcome{}, err
	}
	if out.Orphan {
		t.obs.Emit(obs.KOrphanDropped, p, ids.NoAID, ids.NoInterval, 0)
	} else if out.Interval != ids.NoInterval {
		t.obs.Emit(obs.KMsgTainted, p, ids.NoAID, out.Interval, int64(depCount))
	}
	t.finish(ctx)
	return out, nil
}

// Affirm executes affirm(X) for process p (Section 5.2, Equations 7–14).
//
// The settle's footprint is p's live chain plus X's resolution closure:
// draining X.DOM can finalize dependent intervals, whose IHD members
// may be definitively denied, cascading further — all admitted (or
// escalated) by the footprint walk before anything is written.
func (t *Tracker) Affirm(p ids.Proc, x ids.AID) error {
	if s := t.stall; s != nil {
		s(p, "affirm")
	}
	ctx := t.newOpCtx()
	home := bit(t.procIdx(p)) | bit(t.aidIdx(x))
	err := t.settleCtx(ctx, home, func(locked uint64) error {
		ps, err := t.procAt(p)
		if err != nil {
			return err
		}
		if ps.pending != nil {
			return ErrRolledBack
		}
		f := t.newFootprint(locked)
		if !f.visitProc(p) || !f.resolveAID(x) {
			return errEscape
		}
		return t.affirmLocked(ps, x, ctx)
	})
	t.finish(ctx)
	return err
}

func (t *Tracker) affirmLocked(ps *procState, x ids.AID, ctx *opCtx) error {
	a := t.aid(x)
	switch {
	case a.status == Affirmed || a.status == SpecAffirmed:
		return nil // redundant (§5.2)
	case a.status == Denied && a.systemDenied:
		return nil // stale re-execution after a §5.6 system deny
	case a.status == Denied || a.claimed:
		return ErrConflict
	}

	st := t.aidShard(x)
	cur := ps.current()
	if cur == nil {
		// Definite affirm (Equations 7–9).
		a.claimed = true
		t.setStatus(a, Affirmed, ctx)
		st.stats.DefiniteAffirms++
		t.obs.Emit(obs.KAffirmed, ps.id, x, ids.NoInterval, 0)
		for _, b := range a.dom.Elems() {
			if b.status != speculative {
				continue
			}
			b.ido.Remove(x)
			a.dom.Remove(b)
			if b.ido.Empty() {
				t.finalizeLocked(b, ctx)
			}
		}
	} else {
		// Speculative affirm (Equations 10–14).
		a.claimed = true
		t.setStatus(a, SpecAffirmed, ctx)
		a.affirmer = cur.id
		repl := cur.ido.Clone()
		repl.Remove(x)
		a.replacement = repl
		cur.specAffirmed.Add(x)
		st.stats.SpecAffirms++
		t.obs.Emit(obs.KSpecAffirmed, ps.id, x, cur.id, 0)
		idoSnap := cur.ido.Clone()
		for _, b := range a.dom.Elems() {
			if b.status != speculative {
				continue
			}
			for _, y := range idoSnap.Elems() {
				if y == x {
					continue
				}
				if b.ido.Add(y) {
					t.aid(y).dom.Add(b)
				}
			}
			b.ido.Remove(x)
			a.dom.Remove(b)
			if b.ido.Empty() {
				t.finalizeLocked(b, ctx)
			}
		}
	}
	return nil
}

// Deny executes deny(X) for process p (Section 5.3, Equations 15–16).
func (t *Tracker) Deny(p ids.Proc, x ids.AID) error {
	if s := t.stall; s != nil {
		s(p, "deny")
	}
	ctx := t.newOpCtx()
	home := bit(t.procIdx(p)) | bit(t.aidIdx(x))
	err := t.settleCtx(ctx, home, func(locked uint64) error {
		ps, err := t.procAt(p)
		if err != nil {
			return err
		}
		if ps.pending != nil {
			return ErrRolledBack
		}
		f := t.newFootprint(locked)
		if !f.visitProc(p) || !f.resolveAID(x) {
			return errEscape
		}
		return t.denyLocked(ps, x, ctx)
	})
	t.finish(ctx)
	return err
}

func (t *Tracker) denyLocked(ps *procState, x ids.AID, ctx *opCtx) error {
	a := t.aid(x)
	switch {
	case a.status == Denied || (a.claimed && a.status == Unresolved):
		return nil // redundant (§5.2)
	case a.status == Affirmed || a.status == SpecAffirmed:
		return ErrConflict
	}

	st := t.aidShard(x)
	cur := ps.current()
	if cur == nil || cur.ido.Has(x) {
		// Definite deny (Equation 15).
		a.claimed = true
		t.setStatus(a, Denied, ctx)
		st.stats.DefiniteDenies++
		t.obs.Emit(obs.KDenied, ps.id, x, ids.NoInterval, 0)
		t.rollbackDependentsLocked(a, ctx)
	} else {
		// Speculative deny (Equation 16): only the claim and the IHD
		// membership change — no assumption changes resolution state, so
		// no epoch moves and cached verdicts stay valid; the watcher
		// still fires for pessimistic waiters.
		a.claimed = true
		a.claimedBy = cur.id
		cur.ihd.Add(x)
		ctx.resolved = true
		st.stats.SpecDenies++
		t.obs.Emit(obs.KSpecDenied, ps.id, x, cur.id, 0)
	}
	return nil
}

// FreeOf executes free_of(X) for process p (Section 5.4, Equations 17–19),
// atomically: the dependence test and the induced affirm/deny happen in
// one critical section.
func (t *Tracker) FreeOf(p ids.Proc, x ids.AID) error {
	if s := t.stall; s != nil {
		s(p, "free_of")
	}
	ctx := t.newOpCtx()
	home := bit(t.procIdx(p)) | bit(t.aidIdx(x))
	err := t.settleCtx(ctx, home, func(locked uint64) error {
		ps, err := t.procAt(p)
		if err != nil {
			return err
		}
		if ps.pending != nil {
			return ErrRolledBack
		}
		f := t.newFootprint(locked)
		if !f.visitProc(p) || !f.resolveAID(x) {
			return errEscape
		}
		t.aidShard(x).stats.FreeOfs++
		t.obs.Emit(obs.KFreeOf, p, x, ids.NoInterval, 0)
		a := t.aid(x)
		if a.status == Denied {
			// Re-execution after the constraint violation was handled.
			return nil
		}
		cur := ps.current()
		if cur != nil && cur.ido.Has(x) {
			return t.denyLocked(ps, x, ctx) // Equation 19 (definite: X ∈ A.IDO)
		}
		return t.affirmLocked(ps, x, ctx) // Equations 17–18
	})
	t.finish(ctx)
	return err
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
// become affirmed, and buffered effects are queued for release. Caller
// holds the settle's locked set, which the footprint walk guarantees
// covers iv's shard and every assumption it can flip.
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

	for _, x := range iv.specAffirmed.Elems() {
		a := t.aid(x)
		if a.status == SpecAffirmed && a.affirmer == iv.id {
			t.setStatus(a, Affirmed, ctx)
		}
	}
	ctx.after = append(ctx.after, iv.commits...)
	iv.commits, iv.aborts = nil, nil
	delete(sh.intervals, iv.id)

	// Equation 22.
	for _, x := range iv.ihd.Elems() {
		a := t.aid(x)
		if a.status == Denied || a.status == Affirmed {
			continue
		}
		t.setStatus(a, Denied, ctx)
		a.claimedBy = ids.NoInterval
		t.aidShard(x).stats.DefiniteDenies++
		t.obs.Emit(obs.KDenied, iv.proc, x, ids.NoInterval, 0)
		t.rollbackDependentsLocked(a, ctx)
	}
}

// rollbackDependentsLocked applies a definite deny: every interval in
// X.DOM (and, per Theorem 5.1, every later interval of the same process)
// is discarded.
func (t *Tracker) rollbackDependentsLocked(a *aidState, ctx *opCtx) {
	for _, b := range a.dom.Elems() {
		if b.status != speculative {
			continue
		}
		t.rollbackFromLocked(b, ctx)
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
		for _, x := range b.ido.Elems() {
			t.aid(x).dom.Remove(b)
		}
		for _, x := range b.specAffirmed.Elems() {
			ax := t.aid(x)
			if ax.status == SpecAffirmed && ax.affirmer == b.id {
				t.setStatus(ax, Denied, ctx)
				ax.systemDenied = true
			}
		}
		for _, x := range b.ihd.Elems() {
			ax := t.aid(x)
			if ax.claimedBy == b.id {
				ax.claimed = false
				ax.claimedBy = ids.NoInterval
			}
		}
		// Aborts run newest-first, like deferred compensations.
		ctx.after = append(ctx.after, b.aborts...)
		b.commits, b.aborts = nil, nil
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
// is still unresolved and unclaimed when its shard lock is taken.
// Returns whether it acted.
func (t *Tracker) denySystem(x ids.AID, ctx *opCtx) bool {
	acted := false
	_ = t.settleCtx(ctx, bit(t.aidIdx(x)), func(locked uint64) error {
		f := t.newFootprint(locked)
		if !f.resolveAID(x) {
			return errEscape
		}
		a := t.aidShard(x).aids[x]
		if a == nil || a.status != Unresolved || a.claimed {
			return nil // resolved by an earlier sweep's cascade
		}
		a.claimed = true
		a.systemDenied = true
		t.setStatus(a, Denied, ctx)
		t.aidShard(x).stats.DefiniteDenies++
		t.obs.Emit(obs.KDenied, ids.NoProc, x, ids.NoInterval, 0)
		t.rollbackDependentsLocked(a, ctx)
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
		f := t.newFootprint(locked)
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
// Candidates are collected from every shard in parallel — one goroutine
// per shard under that shard's read lock, since candidate scans touch
// only shard-local state — then merged and swept in ascending
// identifier order, so the sweep sequence — and therefore the cascade
// order and the emitted event stream — is independent of both the shard
// count and the collection interleaving. Each sweep is its own settle;
// processes are quiesced by the caller, so no settle observes the drain
// half-done in a way that matters, and the rollback notifications and
// effects run once at the end like the old single-critical-section
// drain. Returns the number of drain actions taken (assumptions denied
// plus interval chains force-discarded); zero means the tracker was
// already fully settled and no rollback was issued.
func (t *Tracker) DenyAllUnresolved() int {
	ctx := t.newOpCtx()
	denied := 0
	for {
		progress := false
		cands := mergeSorted(collectShards(t.shards, func(s *shard) []ids.AID {
			var out []ids.AID
			for id, a := range s.aids {
				if a.status == Unresolved && !a.claimed {
					out = append(out, id)
				}
			}
			return out
		}))
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
		procs := mergeSorted(collectShards(t.shards, func(s *shard) []ids.Proc {
			var out []ids.Proc
			for id, ps := range s.procs {
				if len(ps.live) > 0 {
					out = append(out, id)
				}
			}
			return out
		}))
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

// collectShards runs scan over every shard concurrently, each under its
// own read lock. Safe for drain collection because the scans read only
// state homed on the locked shard; per-shard results come back in shard
// order, ready for a deterministic merge.
func collectShards[T ~uint64](shards []*shard, scan func(*shard) []T) [][]T {
	parts := make([][]T, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			s.mu.RLock()
			parts[i] = scan(s)
			s.mu.RUnlock()
		}(i, s)
	}
	wg.Wait()
	return parts
}

// mergeSorted flattens per-shard candidate slices into one ascending
// identifier order — the shard-count-independent sweep order.
func mergeSorted[T ~uint64](parts [][]T) []T {
	var all []T
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// ApplyVerdict applies a terminal resolution decided elsewhere — a
// distributed Affirm/Deny received over the wire. It is the definite
// branch of Affirm/Deny acting on the system's behalf: no calling
// process, no speculative variant. The operation is idempotent —
// re-applying an already-settled verdict in the same direction is a
// no-op — and tolerant of §5.6 system denies superseding a remote
// affirm, so verdict gossip between nodes terminates without loops.
// A genuinely contradictory verdict returns ErrConflict.
func (t *Tracker) ApplyVerdict(x ids.AID, affirmed bool) error {
	ctx := t.newOpCtx()
	err := t.settleCtx(ctx, bit(t.aidIdx(x)), func(locked uint64) error {
		f := t.newFootprint(locked)
		if !f.resolveAID(x) {
			return errEscape
		}
		return t.applyVerdictLocked(t.aid(x), affirmed, ctx)
	})
	t.finish(ctx)
	return err
}

// applyVerdictLocked mirrors the definite branches of affirmLocked and
// denyLocked without a resolving interval. Caller holds the settle's
// locked set, admitted by a resolveAID footprint walk on x.
func (t *Tracker) applyVerdictLocked(a *aidState, affirmed bool, ctx *opCtx) error {
	st := t.aidShard(a.id)
	if affirmed {
		switch {
		case a.status == Affirmed || a.status == SpecAffirmed:
			return nil // redundant (§5.2): already (speculatively) affirmed
		case a.status == Denied && a.systemDenied:
			return nil // superseded by a §5.6 system deny
		case a.status == Denied:
			return ErrConflict
		}
		// Definite affirm (Equations 7–9), resolver-less.
		a.claimed = true
		t.setStatus(a, Affirmed, ctx)
		st.stats.DefiniteAffirms++
		t.obs.Emit(obs.KAffirmed, ids.NoProc, a.id, ids.NoInterval, 0)
		for _, b := range a.dom.Elems() {
			if b.status != speculative {
				continue
			}
			b.ido.Remove(a.id)
			a.dom.Remove(b)
			if b.ido.Empty() {
				t.finalizeLocked(b, ctx)
			}
		}
		return nil
	}
	switch {
	case a.status == Denied:
		return nil // redundant: denies agree
	case a.status == Affirmed || a.status == SpecAffirmed:
		return ErrConflict
	}
	// Definite deny (Equation 15), resolver-less. A local speculative
	// deny claim is compatible — the remote verdict settles it early and
	// the claiming interval's IHD entry becomes a redundant re-deny.
	a.claimed = true
	t.setStatus(a, Denied, ctx)
	st.stats.DefiniteDenies++
	t.obs.Emit(obs.KDenied, ids.NoProc, a.id, ids.NoInterval, 0)
	t.rollbackDependentsLocked(a, ctx)
	return nil
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

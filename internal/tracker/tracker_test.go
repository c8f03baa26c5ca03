package tracker

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"hope/internal/ids"
)

// recorder counts rollback notifications; targets are read from the
// tracker itself (take or peek helpers below).
type recorder struct {
	mu       sync.Mutex
	notifies int
}

func (r *recorder) NotifyRollback() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notifies++
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.notifies
}

// take pops the pending target for p, returning LogIndex -1 when none.
func take(tr *Tracker, p ids.Proc) RollbackTarget {
	if tgt := tr.TakePending(p); tgt != nil {
		return *tgt
	}
	return RollbackTarget{LogIndex: -1}
}

func setup(t *testing.T, n int) (*Tracker, []ids.Proc, []*recorder) {
	t.Helper()
	tr := New()
	procs := make([]ids.Proc, n)
	recs := make([]*recorder, n)
	for i := range procs {
		recs[i] = &recorder{}
		procs[i] = tr.Register(recs[i])
	}
	return tr, procs, recs
}

func mustGuess(t *testing.T, tr *Tracker, p ids.Proc, x ids.AID, logIndex int) GuessOutcome {
	t.Helper()
	out, err := tr.Guess(p, x, logIndex)
	if err != nil {
		t.Fatalf("Guess: %v", err)
	}
	return out
}

func TestGuessOpensIntervalAndAffirmFinalizes(t *testing.T) {
	tr, ps, recs := setup(t, 2)
	x := tr.NewAID()

	out := mustGuess(t, tr, ps[0], x, 0)
	if !out.Result || !out.Interval.Valid() {
		t.Fatalf("guess outcome = %+v, want true with interval", out)
	}
	if tr.Definite(ps[0]) {
		t.Fatal("P1 should be speculative after guess")
	}

	committed := false
	if err := tr.AttachEffect(ps[0], func() { committed = true }, nil); err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("effect committed while speculative")
	}

	if err := tr.Affirm(ps[1], x); err != nil {
		t.Fatal(err)
	}
	if !tr.Definite(ps[0]) {
		t.Fatal("P1 should be definite after affirm")
	}
	if !committed {
		t.Fatal("effect not released at finalize")
	}
	if got := tr.Status(x); got != Affirmed {
		t.Fatalf("status = %v, want affirmed", got)
	}
	if recs[0].count() != 0 {
		t.Fatal("unexpected rollback request")
	}
}

func TestDenyRequestsRollback(t *testing.T) {
	tr, ps, recs := setup(t, 2)
	x := tr.NewAID()
	mustGuess(t, tr, ps[0], x, 7)

	aborted := false
	if err := tr.AttachEffect(ps[0], func() { t.Error("commit ran") }, func() { aborted = true }); err != nil {
		t.Fatal(err)
	}
	if err := tr.Deny(ps[1], x); err != nil {
		t.Fatal(err)
	}
	if recs[0].count() != 1 {
		t.Fatalf("rollback notifications = %d, want 1", recs[0].count())
	}
	if got := take(tr, ps[0]); got.LogIndex != 7 || got.Implicit {
		t.Fatalf("target = %+v, want logIndex 7 explicit", got)
	}
	if !aborted {
		t.Fatal("abort effect not run")
	}
	if !tr.Definite(ps[0]) {
		t.Fatal("P1 should be definite after rollback")
	}
}

func TestGuessShortCircuitsOnResolved(t *testing.T) {
	tr, ps, _ := setup(t, 2)
	x, y := tr.NewAID(), tr.NewAID()
	if err := tr.Affirm(ps[1], x); err != nil {
		t.Fatal(err)
	}
	if err := tr.Deny(ps[1], y); err != nil {
		t.Fatal(err)
	}
	if out := mustGuess(t, tr, ps[0], x, 0); !out.Result || out.Interval.Valid() {
		t.Fatalf("guess affirmed = %+v, want true no interval", out)
	}
	if out := mustGuess(t, tr, ps[0], y, 1); out.Result || out.Interval.Valid() {
		t.Fatalf("guess denied = %+v, want false no interval", out)
	}
	if s := tr.Stats(); s.ShortGuesses != 2 || s.Guesses != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestNestedGuessInheritsAndEarliestTargetWins(t *testing.T) {
	tr, ps, _ := setup(t, 2)
	x, y := tr.NewAID(), tr.NewAID()
	mustGuess(t, tr, ps[0], x, 3)
	mustGuess(t, tr, ps[0], y, 9)
	if n := tr.LiveIntervals(ps[0]); n != 2 {
		t.Fatalf("live intervals = %d, want 2", n)
	}
	// Denying X must roll back both intervals with the earliest target.
	if err := tr.Deny(ps[1], x); err != nil {
		t.Fatal(err)
	}
	if got := take(tr, ps[0]); got.LogIndex != 3 {
		t.Fatalf("target logIndex = %d, want 3 (earliest)", got.LogIndex)
	}
	if n := tr.LiveIntervals(ps[0]); n != 0 {
		t.Fatalf("live intervals after rollback = %d, want 0", n)
	}
	// Y is untouched — still unresolved.
	if got := tr.Status(y); got != Unresolved {
		t.Fatalf("Y = %v, want unresolved", got)
	}
}

func TestInnerDenyKeepsOuterInterval(t *testing.T) {
	tr, ps, _ := setup(t, 2)
	x, y := tr.NewAID(), tr.NewAID()
	mustGuess(t, tr, ps[0], x, 3)
	mustGuess(t, tr, ps[0], y, 9)
	if err := tr.Deny(ps[1], y); err != nil {
		t.Fatal(err)
	}
	if got := take(tr, ps[0]); got.LogIndex != 9 {
		t.Fatalf("target logIndex = %d, want 9 (inner)", got.LogIndex)
	}
	if n := tr.LiveIntervals(ps[0]); n != 1 {
		t.Fatalf("live intervals = %d, want 1 (outer survives)", n)
	}
}

func TestSpeculativeAffirmTransitivity(t *testing.T) {
	// Lemma 6.1: P2 affirms X while dependent on Y; X settles with Y.
	tr, ps, recs := setup(t, 3)
	x, y := tr.NewAID(), tr.NewAID()
	mustGuess(t, tr, ps[0], x, 0) // P1 depends on X
	mustGuess(t, tr, ps[1], y, 0) // P2 depends on Y
	if err := tr.Affirm(ps[1], x); err != nil {
		t.Fatal(err)
	}
	if got := tr.Status(x); got != SpecAffirmed {
		t.Fatalf("X = %v, want spec-affirmed", got)
	}
	if tr.Definite(ps[0]) {
		t.Fatal("P1 must stay speculative: X's affirmer is speculative")
	}
	// Y affirmed definitively → everything settles.
	if err := tr.Affirm(ps[2], y); err != nil {
		t.Fatal(err)
	}
	if got := tr.Status(x); got != Affirmed {
		t.Fatalf("X = %v, want affirmed", got)
	}
	if !tr.Definite(ps[0]) || !tr.Definite(ps[1]) {
		t.Fatal("both processes should be definite")
	}
	if recs[0].count() != 0 && recs[1].count() != 0 {
		t.Fatal("no rollbacks expected")
	}
}

func TestSpeculativeAffirmRollbackDeniesTransitively(t *testing.T) {
	tr, ps, recs := setup(t, 3)
	x, y := tr.NewAID(), tr.NewAID()
	mustGuess(t, tr, ps[0], x, 0)
	mustGuess(t, tr, ps[1], y, 0)
	if err := tr.Affirm(ps[1], x); err != nil {
		t.Fatal(err)
	}
	if err := tr.Deny(ps[2], y); err != nil {
		t.Fatal(err)
	}
	if got := tr.Status(x); got != Denied {
		t.Fatalf("X = %v, want denied (§5.6)", got)
	}
	if recs[0].count() != 1 || recs[1].count() != 1 {
		t.Fatalf("rollbacks = %d,%d, want 1,1", recs[0].count(), recs[1].count())
	}
	// Emulate the runtime consuming the rollback, then re-executing.
	take(tr, ps[0])
	take(tr, ps[1])
	// §5.6 approximation: the re-executed affirm is stale, not an error.
	if err := tr.Affirm(ps[1], x); err != nil {
		t.Fatalf("stale affirm after system deny: %v", err)
	}
}

func TestSpeculativeDenyAppliedAtFinalize(t *testing.T) {
	tr, ps, recs := setup(t, 3)
	x, y := tr.NewAID(), tr.NewAID()
	mustGuess(t, tr, ps[0], x, 0)
	mustGuess(t, tr, ps[1], y, 0)
	if err := tr.Deny(ps[1], x); err != nil { // speculative: P2 depends on Y, not X
		t.Fatal(err)
	}
	if got := tr.Status(x); got != Unresolved {
		t.Fatalf("X = %v, want unresolved while deny pending", got)
	}
	if recs[0].count() != 0 {
		t.Fatal("premature rollback")
	}
	if err := tr.Affirm(ps[2], y); err != nil { // finalizes P2's interval → deny applies
		t.Fatal(err)
	}
	if got := tr.Status(x); got != Denied {
		t.Fatalf("X = %v, want denied after finalize (Equation 22)", got)
	}
	if recs[0].count() != 1 {
		t.Fatalf("P1 rollbacks = %d, want 1", recs[0].count())
	}
}

func TestSpeculativeDenyDiesWithRollback(t *testing.T) {
	tr, ps, recs := setup(t, 3)
	x, y := tr.NewAID(), tr.NewAID()
	mustGuess(t, tr, ps[0], x, 0)
	mustGuess(t, tr, ps[1], y, 0)
	if err := tr.Deny(ps[1], x); err != nil {
		t.Fatal(err)
	}
	if err := tr.Deny(ps[2], y); err != nil { // rolls P2 back; its deny of X dies
		t.Fatal(err)
	}
	if got := tr.Status(x); got != Unresolved {
		t.Fatalf("X = %v, want unresolved (deny died, §5.6)", got)
	}
	if recs[0].count() != 0 {
		t.Fatal("P1 must not be rolled back")
	}
	// The claim was released: X can now be affirmed.
	if err := tr.Affirm(ps[2], x); err != nil {
		t.Fatal(err)
	}
	if !tr.Definite(ps[0]) {
		t.Fatal("P1 should finalize after the released affirm")
	}
}

func TestFreeOfCases(t *testing.T) {
	t.Run("definite affirm", func(t *testing.T) {
		tr, ps, _ := setup(t, 2)
		x := tr.NewAID()
		mustGuess(t, tr, ps[0], x, 0)
		if err := tr.FreeOf(ps[1], x); err != nil { // P2 definite → Eq. 17
			t.Fatal(err)
		}
		if got := tr.Status(x); got != Affirmed {
			t.Fatalf("X = %v, want affirmed", got)
		}
	})
	t.Run("violation denies", func(t *testing.T) {
		tr, ps, recs := setup(t, 1)
		x := tr.NewAID()
		mustGuess(t, tr, ps[0], x, 4)
		if err := tr.FreeOf(ps[0], x); err != nil { // Eq. 19: dependent
			t.Fatal(err)
		}
		if got := tr.Status(x); got != Denied {
			t.Fatalf("X = %v, want denied", got)
		}
		if recs[0].count() != 1 {
			t.Fatalf("notifications = %d, want 1", recs[0].count())
		}
		if got := take(tr, ps[0]); got.LogIndex != 4 {
			t.Fatalf("rollback target = %+v", got)
		}
	})
	t.Run("speculative affirm", func(t *testing.T) {
		tr, ps, _ := setup(t, 2)
		x, y := tr.NewAID(), tr.NewAID()
		mustGuess(t, tr, ps[0], x, 0)
		mustGuess(t, tr, ps[1], y, 0)
		if err := tr.FreeOf(ps[1], x); err != nil { // Eq. 18
			t.Fatal(err)
		}
		if got := tr.Status(x); got != SpecAffirmed {
			t.Fatalf("X = %v, want spec-affirmed", got)
		}
	})
	t.Run("after deny is noop", func(t *testing.T) {
		tr, ps, _ := setup(t, 2)
		x := tr.NewAID()
		if err := tr.Deny(ps[1], x); err != nil {
			t.Fatal(err)
		}
		if err := tr.FreeOf(ps[0], x); err != nil {
			t.Fatalf("free_of after deny: %v", err)
		}
	})
}

func TestDeliverTaggingAndOrphans(t *testing.T) {
	tr, ps, recs := setup(t, 3)
	x := tr.NewAID()
	mustGuess(t, tr, ps[0], x, 0)
	tags, err := tr.Tag(ps[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(tags) != 1 || tags[0] != x {
		t.Fatalf("tags = %v, want [%v]", tags, x)
	}

	// Delivery to P2 creates an implicit interval.
	out, err := tr.Deliver(ps[1], tags, 5)
	if err != nil {
		t.Fatal(err)
	}
	if out.Orphan || !out.Interval.Valid() {
		t.Fatalf("deliver = %+v, want interval", out)
	}
	// P2's sends now carry the transitive tag.
	if tags2, err := tr.Tag(ps[1]); err != nil || len(tags2) != 1 || tags2[0] != x {
		t.Fatalf("transitive tags = %v (%v)", tags2, err)
	}

	// Deny X: both P1 and P2 roll back; the tag set becomes an orphan.
	if err := tr.Deny(ps[2], x); err != nil {
		t.Fatal(err)
	}
	if recs[0].count() != 1 || recs[1].count() != 1 {
		t.Fatalf("rollbacks = %d,%d", recs[0].count(), recs[1].count())
	}
	if got := take(tr, ps[1]); !got.Implicit || got.LogIndex != 5 {
		t.Fatalf("P2 target = %+v, want implicit logIndex 5", got)
	}
	if settled, orphan := tr.Settled(tags); settled || !orphan {
		t.Fatal("tags should be orphaned after deny")
	}
	if out, err := tr.Deliver(ps[1], tags, 9); err != nil || !out.Orphan {
		t.Fatalf("second deliver = %+v, %v; want orphan", out, err)
	}
}

// TestTagSurvivesIDOMutation: a message tag shares its sender's IDO, so
// every later write to that IDO must leave the tag reading what it read
// when it was taken. The sender's interval depends on {X, Y} when the
// first tag is taken; a definite affirm then drains X (a removal that
// copies), a speculative affirm of Y inserts its affirmer's Z (an insert
// that copies) and a definite affirm of Z drains the last member (a
// shorter view, no copy).
func TestTagSurvivesIDOMutation(t *testing.T) {
	tr, ps, _ := setup(t, 3)
	sender, affirmer, judge := ps[0], ps[1], ps[2]
	x, y, z := tr.NewAID(), tr.NewAID(), tr.NewAID()
	mustGuess(t, tr, sender, x, 0)
	mustGuess(t, tr, sender, y, 1)
	mustGuess(t, tr, affirmer, z, 0)
	tag := func() []ids.AID {
		t.Helper()
		tags, err := tr.Tag(sender)
		if err != nil {
			t.Fatal(err)
		}
		return tags
	}
	type held struct {
		tags, want []ids.AID
	}
	var taken []held
	check := func(step string) {
		t.Helper()
		for _, h := range taken {
			if !slices.Equal(h.tags, h.want) {
				t.Fatalf("after %s: a tag taken as %v reads %v", step, h.want, h.tags)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}
	resolve := func(step string, p ids.Proc, a ids.AID) {
		t.Helper()
		if err := tr.Affirm(p, a); err != nil {
			t.Fatal(err)
		}
		check(step)
	}

	taken = append(taken, held{tag(), []ids.AID{x, y}})
	resolve("the affirm of X", judge, x)
	taken = append(taken, held{tag(), []ids.AID{y}})
	resolve("the speculative affirm of Y", affirmer, y)
	taken = append(taken, held{tag(), []ids.AID{z}})
	resolve("the affirm of Z", judge, z)
	if !tr.Definite(sender) || !tr.Definite(affirmer) {
		t.Fatal("both processes should be definite once Z is affirmed")
	}
}

func TestDeliverUntaggedNoInterval(t *testing.T) {
	tr, ps, _ := setup(t, 1)
	out, err := tr.Deliver(ps[0], nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Orphan || out.Interval.Valid() {
		t.Fatalf("deliver = %+v, want plain delivery", out)
	}
	if !tr.Definite(ps[0]) {
		t.Fatal("untagged delivery must not make P speculative")
	}
}

func TestConflictErrors(t *testing.T) {
	tr, ps, _ := setup(t, 2)
	x := tr.NewAID()
	if err := tr.Affirm(ps[0], x); err != nil {
		t.Fatal(err)
	}
	if err := tr.Deny(ps[0], x); !errors.Is(err, ErrConflict) {
		t.Fatalf("deny after affirm = %v, want ErrConflict", err)
	}
	y := tr.NewAID()
	if err := tr.Deny(ps[0], y); err != nil {
		t.Fatal(err)
	}
	if err := tr.Affirm(ps[0], y); !errors.Is(err, ErrConflict) {
		t.Fatalf("affirm after deny = %v, want ErrConflict", err)
	}
	// Redundant same-kind is fine.
	if err := tr.Affirm(ps[0], x); err != nil {
		t.Fatal(err)
	}
	if err := tr.Deny(ps[0], y); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownProcErrors(t *testing.T) {
	tr := New()
	x := tr.NewAID()
	if _, err := tr.Guess(ids.Proc(99), x, 0); !errors.Is(err, ErrUnknownProc) {
		t.Fatalf("Guess = %v, want ErrUnknownProc", err)
	}
	if err := tr.Affirm(ids.Proc(99), x); !errors.Is(err, ErrUnknownProc) {
		t.Fatalf("Affirm = %v, want ErrUnknownProc", err)
	}
}

func TestSelfAffirmCollapses(t *testing.T) {
	tr, ps, recs := setup(t, 1)
	x := tr.NewAID()
	mustGuess(t, tr, ps[0], x, 0)
	if err := tr.Affirm(ps[0], x); err != nil {
		t.Fatal(err)
	}
	if !tr.Definite(ps[0]) {
		t.Fatal("self affirm must finalize the interval (§5.2)")
	}
	if got := tr.Status(x); got != Affirmed {
		t.Fatalf("X = %v, want affirmed", got)
	}
	if recs[0].count() != 0 {
		t.Fatal("no rollback expected")
	}
}

// TestEffectOrderingAtFinalize: one settle finalizes six intervals with
// two effects each — more intervals than a settle keeps inline, more
// effects than an interval does — and every effect leaves, in program
// order.
func TestEffectOrderingAtFinalize(t *testing.T) {
	tr, ps, _ := setup(t, 2)
	x := tr.NewAID()
	const intervals, effects = 6, 2
	var order, want []int
	for i := 0; i < intervals*effects; i++ {
		if i%effects == 0 {
			mustGuess(t, tr, ps[0], x, i)
		}
		if err := tr.AttachEffect(ps[0], func() { order = append(order, i) }, nil); err != nil {
			t.Fatal(err)
		}
		want = append(want, i)
	}
	if n := tr.LiveIntervals(ps[0]); n != intervals {
		t.Fatalf("%d live intervals, want %d", n, intervals)
	}
	if err := tr.Affirm(ps[1], x); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, want) {
		t.Fatalf("commit order = %v, want %v", order, want)
	}
}

// TestCommitsReleaseInIntervalOrder: when one settle finalizes several
// intervals of one process, their effects leave in program order. P1's
// speculative affirms re-home P0's intervals into Z.DOM newest first, so
// DOM order is the reverse of interval order here.
func TestCommitsReleaseInIntervalOrder(t *testing.T) {
	tr, ps, _ := setup(t, 3)
	a, b, z := tr.NewAID(), tr.NewAID(), tr.NewAID()
	var order []string
	for i, x := range []ids.AID{a, b} {
		name := mustGuess(t, tr, ps[0], x, i).Interval.String()
		if err := tr.AttachEffect(ps[0], func() { order = append(order, name) }, nil); err != nil {
			t.Fatal(err)
		}
	}
	mustGuess(t, tr, ps[1], z, 0)
	for _, step := range []error{tr.Affirm(ps[1], b), tr.Affirm(ps[1], a), tr.Affirm(ps[2], z)} {
		if step != nil {
			t.Fatal(step)
		}
	}
	if got := fmt.Sprint(order); got != "[A1 A2]" {
		t.Fatalf("commits released as %v, want [A1 A2]", got)
	}
}

func TestImmediateEffectWhenDefinite(t *testing.T) {
	tr, ps, _ := setup(t, 1)
	ran := false
	if err := tr.AttachEffect(ps[0], func() { ran = true }, func() { t.Error("abort ran") }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("definite effect should commit immediately")
	}
}

func TestConcurrentGuessAffirmStress(t *testing.T) {
	// Many goroutines guessing and resolving distinct AIDs: exercises
	// lock discipline under the race detector.
	tr := New()
	const workers = 8
	recs := make([]*recorder, workers)
	procs := make([]ids.Proc, workers)
	for i := range procs {
		recs[i] = &recorder{}
		procs[i] = tr.Register(recs[i])
	}
	resolver := tr.Register(&recorder{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				x := tr.NewAID()
				out, err := tr.Guess(procs[i], x, j)
				if err != nil {
					t.Errorf("guess: %v", err)
					return
				}
				if !out.Result {
					t.Error("fresh guess returned false")
					return
				}
				if j%2 == 0 {
					_ = tr.Affirm(resolver, x)
				} else {
					_ = tr.Deny(resolver, x)
					// Emulate the runtime applying the rollback before
					// this process's next operation.
					tr.TakePending(procs[i])
				}
			}
		}()
	}
	wg.Wait()
	s := tr.Stats()
	if s.Guesses != workers*200 {
		t.Fatalf("guesses = %d, want %d", s.Guesses, workers*200)
	}
	if s.Finalized+s.RolledBack != workers*200 {
		t.Fatalf("settled = %d, want %d", s.Finalized+s.RolledBack, workers*200)
	}
}

// Property: the tracker's structural invariants hold after every
// operation of arbitrary random command sequences (including misuse,
// which degrades to redundant/conflict handling).
func TestQuickInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed int64, opsRaw []uint16) bool {
		tr := New()
		const procs, aids = 3, 5
		ps := make([]ids.Proc, procs)
		for i := range ps {
			ps[i] = tr.Register(noopHooks{})
		}
		xs := make([]ids.AID, aids)
		for i := range xs {
			xs[i] = tr.NewAID()
		}
		for i, raw := range opsRaw {
			p := ps[int(raw)%procs]
			x := xs[int(raw>>2)%aids]
			switch (raw >> 8) % 4 {
			case 0:
				if _, err := tr.Guess(p, x, i); err != nil {
					return false
				}
			case 1:
				if err := tr.Affirm(p, x); err != nil && err != ErrConflict {
					return false
				}
			case 2:
				if err := tr.Deny(p, x); err != nil && err != ErrConflict {
					return false
				}
			case 3:
				if err := tr.FreeOf(p, x); err != nil && err != ErrConflict {
					return false
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Logf("seed=%d op=%d: %v", seed, i, err)
				return false
			}
			// Drain pending rollback targets like the runtime would, so
			// later ops see a consistent "post-rollback" world. (The
			// tracker cleans interval state itself; targets are only
			// restart hints.)
			for _, pp := range ps {
				tr.TakePending(pp)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

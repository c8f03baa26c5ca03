package tracker

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hope/internal/ids"
	"hope/internal/obs"
)

// The resolution case table of Section 5 (Equations 7–19), pinned cell by
// cell: X's state × who resolves × what they ask. The tracker's entry
// points (Affirm, Deny, FreeOf, ApplyVerdict, the §5.6 drain's
// denySystem, and Guess/Deliver on the opening side) agree on everything
// except six named conditions; each has a comment "difference N" at the
// rows or subtests that hold it:
//
//  1. a system affirm overrides a local speculative-deny claim, where a
//     process's affirm of a claimed X is ErrConflict;
//  2. a system deny settles a claimed, unresolved X, where a process's
//     deny of it is redundant;
//  3. the stall hook fires for process resolvers only;
//  4. the drain's denySystem acts only on an unresolved, unclaimed X and
//     marks it system-denied (a later process affirm is a stale
//     re-execution, not a conflict);
//  5. Guess creates a record for a never-seen AID, Deliver reads an
//     unknown tag as settled;
//  6. counters and events differ by kind: GuessesOpened/ShortGuesses and
//     guess-* events against MsgsTainted/Orphans and msg-tainted /
//     orphan-dropped, and a system resolution is attributed to no process.

type xState int

const (
	xUnresolved xState = iota
	xClaimed           // unresolved, claimed by a live speculative deny
	xSpecAffirmed
	xAffirmed
	xDenied
	xSystemDenied
)

var xStateNames = [...]string{"unresolved", "claimed", "spec-affirmed", "affirmed", "denied", "system-denied"}

type resolver int

const (
	rDefinite resolver = iota
	rSpecFree          // speculative, does not depend on X
	rSpecDep           // speculative, depends on X
	rSystem            // ApplyVerdict: no process
)

var resolverNames = [...]string{"definite", "spec-free", "spec-dep", "system"}

// matrixCase is one built cell: a dependent D holding an interval on X
// (so finalization and rollback are observable), a maker Q that put X in
// its state, and the resolver R.
type matrixCase struct {
	tr      *Tracker
	o       *obs.Observer
	x       ids.AID
	d, q, r ids.Proc
	recs    map[string]*recorder
	stalls  []string
}

func buildCase(t *testing.T, xs xState, rs resolver) *matrixCase {
	t.Helper()
	c := &matrixCase{tr: New(), o: obs.New(), recs: map[string]*recorder{}}
	c.tr.SetObserver(c.o)
	c.tr.SetStallHook(func(p ids.Proc, op string) { c.stalls = append(c.stalls, fmt.Sprintf("%v %s", p, op)) })
	reg := func(name string) ids.Proc {
		c.recs[name] = &recorder{}
		return c.tr.Register(c.recs[name])
	}
	c.d, c.q, c.r = reg("D"), reg("Q"), reg("R")
	x, w, v := c.tr.NewAID(), c.tr.NewAID(), c.tr.NewAID()
	c.x = x
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("setup %s/%s: %v", xStateNames[xs], resolverNames[rs], err)
		}
	}
	mustGuess(t, c.tr, c.d, x, 0)
	if rs == rSpecDep {
		mustGuess(t, c.tr, c.r, x, 0)
	}
	switch xs {
	case xClaimed:
		mustGuess(t, c.tr, c.q, w, 0)
		must(c.tr.Deny(c.q, x))
	case xSpecAffirmed:
		mustGuess(t, c.tr, c.q, w, 0)
		must(c.tr.Affirm(c.q, x))
	case xAffirmed:
		must(c.tr.Affirm(c.q, x))
	case xDenied:
		must(c.tr.Deny(c.q, x))
	case xSystemDenied:
		// Q affirms X speculatively, then Q's own interval is denied: the
		// rollback of a spec-affirmer is a system deny of X (§5.6).
		mustGuess(t, c.tr, c.q, w, 0)
		must(c.tr.Affirm(c.q, x))
		must(c.tr.Deny(c.q, w))
	}
	for _, p := range []ids.Proc{c.d, c.q, c.r} {
		c.tr.TakePending(p)
	}
	if rs == rSpecFree {
		mustGuess(t, c.tr, c.r, v, 0)
	}
	return c
}

// rolled names the processes notified of a rollback since build.
func (c *matrixCase) rolled(base map[string]int) string {
	var out []string
	for _, name := range []string{"D", "Q", "R"} {
		if c.recs[name].count() > base[name] {
			out = append(out, name)
		}
	}
	return strings.Join(out, " ")
}

// resolutionEvents renders the resolution-kind events emitted after the
// first skip events as "kind@proc" (interval lifecycle events are covered
// by the counts delta).
func resolutionEvents(o *obs.Observer, skip int) string {
	evs, _ := o.Events()
	var out []string
	for _, e := range evs[skip:] {
		switch e.Kind {
		case obs.KAffirmed, obs.KSpecAffirmed, obs.KDenied, obs.KSpecDenied, obs.KFreeOf,
			obs.KGuessOpened, obs.KGuessShort, obs.KMsgTainted, obs.KOrphanDropped:
			out = append(out, fmt.Sprintf("%v@%v", e.Kind, e.Proc))
		}
	}
	return strings.Join(out, " ")
}

// counts is the tracker's share of the observer's counters, the eleven
// a cell compares.
type counts struct {
	GuessesOpened, ShortGuesses, MsgsTainted, Orphans int64
	Affirms, SpecAffirms, Denies, SpecDenies, FreeOfs int64
	Committed, RolledBack                             int64
}

func countsOf(o *obs.Observer) counts {
	m := o.Metrics()
	return counts{
		GuessesOpened: m.GuessesOpened.Load(), ShortGuesses: m.ShortGuesses.Load(),
		MsgsTainted: m.MsgsTainted.Load(), Orphans: m.Orphans.Load(),
		Affirms: m.Affirms.Load(), SpecAffirms: m.SpecAffirms.Load(),
		Denies: m.Denies.Load(), SpecDenies: m.SpecDenies.Load(), FreeOfs: m.FreeOfs.Load(),
		Committed: m.Committed.Load(), RolledBack: m.RolledBack.Load(),
	}
}

// minus is the field-wise difference c − b.
func (c counts) minus(b counts) counts {
	return counts{
		c.GuessesOpened - b.GuessesOpened, c.ShortGuesses - b.ShortGuesses,
		c.MsgsTainted - b.MsgsTainted, c.Orphans - b.Orphans,
		c.Affirms - b.Affirms, c.SpecAffirms - b.SpecAffirms,
		c.Denies - b.Denies, c.SpecDenies - b.SpecDenies, c.FreeOfs - b.FreeOfs,
		c.Committed - b.Committed, c.RolledBack - b.RolledBack,
	}
}

type matrixWant struct {
	err    error
	status Resolution
	rolled string // processes notified of a rollback
	events string // resolution events, "@R" = the resolver (P∅ for the system)
	delta  counts
}

func TestResolutionMatrix(t *testing.T) {
	type key struct {
		x  xState
		r  resolver
		op string
	}
	// A process resolver that finds X already resolved behaves the same
	// whether it is definite or speculative, so those rows are shared.
	procs := []resolver{rDefinite, rSpecFree}
	table := map[key]matrixWant{}
	row := func(x xState, rs []resolver, op string, w matrixWant) {
		for _, r := range rs {
			table[key{x, r, op}] = w
		}
	}
	one := func(r resolver) []resolver { return []resolver{r} }
	freeOf := func(s counts) counts { s.FreeOfs++; return s }

	// Unresolved X (Equations 7–19 proper).
	defAffirm := counts{Affirms: 1, Committed: 1}
	defDeny := counts{Denies: 1, RolledBack: 1}
	row(xUnresolved, one(rDefinite), "affirm", matrixWant{nil, Affirmed, "", "affirmed@R", defAffirm})
	row(xUnresolved, one(rDefinite), "deny", matrixWant{nil, Denied, "D", "denied@R", defDeny})
	row(xUnresolved, one(rDefinite), "free_of", matrixWant{nil, Affirmed, "", "free-of@R affirmed@R", freeOf(defAffirm)})
	row(xUnresolved, one(rSpecFree), "affirm", matrixWant{nil, SpecAffirmed, "", "spec-affirmed@R", counts{SpecAffirms: 1}})
	row(xUnresolved, one(rSpecFree), "deny", matrixWant{nil, Unresolved, "", "spec-denied@R", counts{SpecDenies: 1}})
	row(xUnresolved, one(rSpecFree), "free_of", matrixWant{nil, SpecAffirmed, "", "free-of@R spec-affirmed@R", counts{SpecAffirms: 1, FreeOfs: 1}})
	// R depends on X: its affirm collapses (R's own interval finalizes and
	// promotes X), its deny is definite and takes R down with D.
	selfDeny := counts{Denies: 1, RolledBack: 2}
	row(xUnresolved, one(rSpecDep), "affirm", matrixWant{nil, Affirmed, "", "spec-affirmed@R", counts{SpecAffirms: 1, Committed: 2}})
	row(xUnresolved, one(rSpecDep), "deny", matrixWant{nil, Denied, "D R", "denied@R", selfDeny})
	row(xUnresolved, one(rSpecDep), "free_of", matrixWant{nil, Denied, "D R", "free-of@R denied@R", freeOf(selfDeny)})
	row(xUnresolved, one(rSystem), "affirm", matrixWant{nil, Affirmed, "", "affirmed@R", defAffirm})
	row(xUnresolved, one(rSystem), "deny", matrixWant{nil, Denied, "D", "denied@R", defDeny})

	// Claimed X: a live interval of Q holds X in its IHD.
	anyProc := []resolver{rDefinite, rSpecFree, rSpecDep}
	row(xClaimed, anyProc, "affirm", matrixWant{ErrConflict, Unresolved, "", "", counts{}})
	row(xClaimed, anyProc, "deny", matrixWant{nil, Unresolved, "", "", counts{}})
	row(xClaimed, procs, "free_of", matrixWant{ErrConflict, Unresolved, "", "free-of@R", counts{FreeOfs: 1}})
	row(xClaimed, one(rSpecDep), "free_of", matrixWant{nil, Unresolved, "", "free-of@R", counts{FreeOfs: 1}})
	row(xClaimed, one(rSystem), "affirm", matrixWant{nil, Affirmed, "", "affirmed@R", defAffirm}) // difference 1
	row(xClaimed, one(rSystem), "deny", matrixWant{nil, Denied, "D", "denied@R", defDeny})        // difference 2

	// Resolved X: every resolver is redundant or conflicting, nothing
	// moves. No interval can depend on a resolved X (CheckInvariants:
	// resolved assumptions have drained DOMs), so there is no spec-dep
	// column below here.
	all := []resolver{rDefinite, rSpecFree, rSystem}
	for _, x := range []xState{xSpecAffirmed, xAffirmed} {
		st := map[xState]Resolution{xSpecAffirmed: SpecAffirmed, xAffirmed: Affirmed}[x]
		row(x, all, "affirm", matrixWant{nil, st, "", "", counts{}})
		row(x, all, "deny", matrixWant{ErrConflict, st, "", "", counts{}})
		row(x, procs, "free_of", matrixWant{nil, st, "", "free-of@R", counts{FreeOfs: 1}})
	}
	row(xDenied, all, "affirm", matrixWant{ErrConflict, Denied, "", "", counts{}})
	row(xDenied, all, "deny", matrixWant{nil, Denied, "", "", counts{}})
	row(xDenied, procs, "free_of", matrixWant{nil, Denied, "", "free-of@R", counts{FreeOfs: 1}})
	// A system deny is not a user error to contradict: re-executed and
	// remote affirms of it are stale, not conflicts.
	row(xSystemDenied, all, "affirm", matrixWant{nil, Denied, "", "", counts{}})
	row(xSystemDenied, all, "deny", matrixWant{nil, Denied, "", "", counts{}})
	row(xSystemDenied, procs, "free_of", matrixWant{nil, Denied, "", "free-of@R", counts{FreeOfs: 1}})

	ran := 0
	for x := xUnresolved; x <= xSystemDenied; x++ {
		for r := rDefinite; r <= rSystem; r++ {
			for _, op := range []string{"affirm", "deny", "free_of"} {
				want, ok := table[key{x, r, op}]
				if !ok {
					if r == rSystem && op == "free_of" || r == rSpecDep && x > xClaimed {
						continue // not a cell: see the comments above
					}
					t.Fatalf("no expectation for %s/%s/%s", xStateNames[x], resolverNames[r], op)
				}
				ran++
				t.Run(fmt.Sprintf("%s/%s/%s", xStateNames[x], resolverNames[r], op), func(t *testing.T) {
					c := buildCase(t, x, r)
					base := map[string]int{}
					for name, rec := range c.recs {
						base[name] = rec.count()
					}
					evs, _ := c.o.Events()
					before := countsOf(c.o)

					who := c.r
					var err error
					switch {
					case r == rSystem:
						who = ids.NoProc
						err = c.tr.ApplyVerdict(c.x, op == "affirm")
					case op == "affirm":
						err = c.tr.Affirm(c.r, c.x)
					case op == "deny":
						err = c.tr.Deny(c.r, c.x)
					default:
						err = c.tr.FreeOf(c.r, c.x)
					}

					if !errors.Is(err, want.err) {
						t.Errorf("err = %v, want %v", err, want.err)
					}
					if got := c.tr.Status(c.x); got != want.status {
						t.Errorf("X = %v, want %v", got, want.status)
					}
					if got := c.rolled(base); got != want.rolled {
						t.Errorf("rolled back %q, want %q", got, want.rolled)
					}
					if got := countsOf(c.o).minus(before); got != want.delta {
						t.Errorf("counts delta = %+v, want %+v", got, want.delta)
					}
					wantEvents := strings.ReplaceAll(want.events, "@R", "@"+who.String())
					if got := resolutionEvents(c.o, len(evs)); got != wantEvents {
						t.Errorf("events = %q, want %q", got, wantEvents)
					}
					// Difference 3: the stall hook sees process resolvers only.
					wantStalls := []string{fmt.Sprintf("%v %s", c.r, op)}
					if r == rSystem {
						wantStalls = nil
					}
					// (Q's setup resolutions stalled too; only R's calls count.)
					var got []string
					for _, s := range c.stalls {
						if strings.HasPrefix(s, c.r.String()+" ") {
							got = append(got, s)
						}
					}
					if fmt.Sprint(got) != fmt.Sprint(wantStalls) {
						t.Errorf("stall hook calls for R = %v, want %v", got, wantStalls)
					}
					if err := c.tr.CheckInvariants(); err != nil {
						t.Errorf("invariants: %v", err)
					}
				})
			}
		}
	}
	if ran != 54 {
		t.Fatalf("ran %d cells, want 54", ran)
	}
}

// TestResolutionMatrixNoProc: "the system" is not a process a caller can
// name. The zero Proc through the process-side primitives is an unknown
// process in every X state, and moves nothing.
func TestResolutionMatrixNoProc(t *testing.T) {
	for x := xUnresolved; x <= xSystemDenied; x++ {
		c := buildCase(t, x, rDefinite)
		was, before := c.tr.Status(c.x), countsOf(c.o)
		for name, op := range map[string]func(ids.Proc, ids.AID) error{
			"affirm": c.tr.Affirm, "deny": c.tr.Deny, "free_of": c.tr.FreeOf,
		} {
			if err := op(ids.NoProc, c.x); !errors.Is(err, ErrUnknownProc) {
				t.Errorf("%s: %s(NoProc, X) = %v, want ErrUnknownProc", xStateNames[x], name, err)
			}
		}
		if got := c.tr.Status(c.x); got != was || countsOf(c.o) != before {
			t.Errorf("%s: X %v → %v, counts %+v → %+v", xStateNames[x], was, got, before, countsOf(c.o))
		}
	}
}

// TestResolutionMatrixDrain holds difference 4: the §5.6 drain's deny
// acts on an unresolved, unclaimed X only, and what it denies is
// system-denied.
func TestResolutionMatrixDrain(t *testing.T) {
	for x := xUnresolved; x <= xSystemDenied; x++ {
		t.Run(xStateNames[x], func(t *testing.T) {
			c := buildCase(t, x, rDefinite)
			was := c.tr.Status(c.x)
			ctx := c.tr.newOpCtx()
			acted := c.tr.denySystem(c.x, ctx)
			c.tr.finish(ctx)
			if acted != (x == xUnresolved) {
				t.Fatalf("denySystem acted = %v", acted)
			}
			if !acted {
				if got := c.tr.Status(c.x); got != was {
					t.Fatalf("X = %v, was %v: a drain that did not act moved it", got, was)
				}
				return
			}
			if got := c.tr.Status(c.x); got != Denied {
				t.Fatalf("X = %v, want denied", got)
			}
			if c.recs["D"].count() != 1 {
				t.Fatal("the dependent was not rolled back")
			}
			if err := c.tr.Affirm(c.r, c.x); err != nil {
				t.Fatalf("affirm after a system deny = %v, want nil (stale re-execution)", err)
			}
			if err := c.tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestResolutionMatrixOpen holds differences 5 and 6 on the opening
// side: Guess(X) and Deliver({X}) run the same dependency walk and open
// the same interval, and differ in what an unknown X means and in which
// counters and events record the outcome.
func TestResolutionMatrixOpen(t *testing.T) {
	type outcome struct {
		opened, result, orphan bool
		events                 string
		delta                  counts
	}
	cases := []struct {
		name    string
		x       func(c *matrixCase) ids.AID
		guess   outcome
		deliver outcome
	}{
		{"unresolved", func(c *matrixCase) ids.AID { return c.x },
			outcome{opened: true, result: true, events: "guess-opened@R", delta: counts{GuessesOpened: 1}},
			outcome{opened: true, events: "msg-tainted@R", delta: counts{MsgsTainted: 1}}},
		{"affirmed", func(c *matrixCase) ids.AID { _ = c.tr.Affirm(c.q, c.x); return c.x },
			outcome{result: true, events: "guess-short@R", delta: counts{ShortGuesses: 1}},
			outcome{}},
		{"denied", func(c *matrixCase) ids.AID { _ = c.tr.Deny(c.q, c.x); return c.x },
			outcome{events: "guess-short@R", delta: counts{ShortGuesses: 1}},
			outcome{orphan: true, events: "orphan-dropped@R", delta: counts{Orphans: 1}}},
		// Difference 5.
		{"never seen", func(c *matrixCase) ids.AID { return ids.AID(1 << 40) },
			outcome{opened: true, result: true, events: "guess-opened@R", delta: counts{GuessesOpened: 1}},
			outcome{}},
	}
	for _, tc := range cases {
		for _, implicit := range []bool{false, true} {
			name, want := tc.name+"/guess", tc.guess
			if implicit {
				name, want = tc.name+"/deliver", tc.deliver
			}
			t.Run(name, func(t *testing.T) {
				c := buildCase(t, xUnresolved, rDefinite)
				x := tc.x(c)
				evs, _ := c.o.Events()
				before := countsOf(c.o)
				var got outcome
				if implicit {
					out, err := c.tr.Deliver(c.r, []ids.AID{x}, 7)
					if err != nil {
						t.Fatal(err)
					}
					got = outcome{opened: out.Interval.Valid(), orphan: out.Orphan}
				} else {
					out, err := c.tr.Guess(c.r, x, 7)
					if err != nil {
						t.Fatal(err)
					}
					got = outcome{opened: out.Interval.Valid(), result: out.Result}
				}
				got.delta = countsOf(c.o).minus(before)
				got.events = strings.ReplaceAll(resolutionEvents(c.o, len(evs)), "@"+c.r.String(), "@R")
				if got != want {
					t.Fatalf("got %+v, want %+v", got, want)
				}
				if c.tr.Definite(c.r) == want.opened {
					t.Fatalf("Definite(R) = %v with opened = %v", c.tr.Definite(c.r), want.opened)
				}
				if want.opened {
					if err := c.tr.Deny(c.q, x); err != nil {
						t.Fatal(err)
					}
					if got := take(c.tr, c.r); got.LogIndex != 7 || got.Implicit != implicit {
						t.Fatalf("rollback target = %+v, want log index 7, implicit %v", got, implicit)
					}
				}
				if err := c.tr.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestMaterializeDeliverApplyVerdict is the distributed path end to end:
// a foreign AID is unknown (settled) until materialized, speculative
// after, and the minting node's verdict — applied on the system's behalf
// — finalizes or rolls back the receiver, idempotently.
func TestMaterializeDeliverApplyVerdict(t *testing.T) {
	for _, affirmed := range []bool{true, false} {
		t.Run(fmt.Sprintf("affirmed=%v", affirmed), func(t *testing.T) {
			tr, ps, recs := setup(t, 1)
			o := obs.New(obs.WithEventCapacity(0))
			tr.SetObserver(o)
			foreign := []ids.AID{ids.AID(3<<48 | 1), ids.AID(3<<48 | 2)}
			if settled, orphan := tr.Settled(foreign); !settled || orphan {
				t.Fatalf("unknown tags: settled=%v orphan=%v, want settled", settled, orphan)
			}
			tr.Materialize(foreign)
			tr.Materialize(foreign[:1]) // a second message with a known tag
			var records int64
			for _, n := range o.Metrics().Snapshot().ShardAssumptions {
				records += n
			}
			if records != 2 {
				t.Fatalf("Materialize left %d records, want 2", records)
			}
			if settled, orphan := tr.Settled(foreign); settled || orphan {
				t.Fatalf("materialized tags: settled=%v orphan=%v, want speculative", settled, orphan)
			}
			out, err := tr.Deliver(ps[0], foreign, 4)
			if err != nil || out.Orphan || !out.Interval.Valid() {
				t.Fatalf("deliver = %+v, %v; want an implicit interval", out, err)
			}
			var commits, aborts int
			if err := tr.AttachEffect(ps[0], func() { commits++ }, func() { aborts++ }); err != nil {
				t.Fatal(err)
			}
			if err := tr.ApplyVerdict(foreign[0], true); err != nil {
				t.Fatal(err)
			}
			if tr.Definite(ps[0]) {
				t.Fatal("one of two verdicts must not finalize the receiver")
			}
			for i := 0; i < 2; i++ { // verdict gossip repeats
				if err := tr.ApplyVerdict(foreign[1], affirmed); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.ApplyVerdict(foreign[1], !affirmed); !errors.Is(err, ErrConflict) {
				t.Fatalf("contradicting verdict = %v, want ErrConflict", err)
			}
			if !tr.Definite(ps[0]) {
				t.Fatal("receiver still speculative after both verdicts")
			}
			if affirmed {
				if commits != 1 || aborts != 0 || recs[0].count() != 0 || !tr.WasFinalized(ps[0], out.Interval) {
					t.Fatalf("affirmed: commits=%d aborts=%d rollbacks=%d", commits, aborts, recs[0].count())
				}
			} else {
				if got := take(tr, ps[0]); commits != 0 || aborts != 1 || !got.Implicit || got.LogIndex != 4 {
					t.Fatalf("denied: commits=%d aborts=%d target=%+v", commits, aborts, got)
				}
				if _, orphan := tr.Settled(foreign); !orphan {
					t.Fatal("denied foreign tag must orphan the set")
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

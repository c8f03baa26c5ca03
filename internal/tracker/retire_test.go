package tracker

import (
	"fmt"
	"strings"
	"testing"

	"hope/internal/ids"
)

// terminalStates builds X in each terminal state the way the resolution
// matrix does: Q affirms or denies it definitely, or affirms it
// speculatively and is then rolled back, which is a §5.6 system deny.
var terminalStates = []struct {
	name  string
	build func(t *testing.T, tr *Tracker, q ids.Proc) ids.AID
}{
	{"affirmed", func(t *testing.T, tr *Tracker, q ids.Proc) ids.AID {
		x := tr.NewAID()
		if err := tr.Affirm(q, x); err != nil {
			t.Fatal(err)
		}
		return x
	}},
	{"denied", func(t *testing.T, tr *Tracker, q ids.Proc) ids.AID {
		x := tr.NewAID()
		if err := tr.Deny(q, x); err != nil {
			t.Fatal(err)
		}
		return x
	}},
	{"system-denied", func(t *testing.T, tr *Tracker, q ids.Proc) ids.AID {
		x, w := tr.NewAID(), tr.NewAID()
		mustGuess(t, tr, q, w, 0)
		if err := tr.Affirm(q, x); err != nil {
			t.Fatal(err)
		}
		if err := tr.Deny(q, w); err != nil {
			t.Fatal(err)
		}
		tr.TakePending(q)
		return x
	}},
}

// classifyBoth renders the classification of {X} and of {Y, X} with Y
// unresolved.
func classifyBoth(tr *Tracker, x, y ids.AID) string {
	s1, o1 := tr.Settled([]ids.AID{x})
	s2, o2 := tr.Settled([]ids.AID{y, x})
	return fmt.Sprintf("{x} settled=%v orphan=%v; {y,x} settled=%v orphan=%v", s1, o1, s2, o2)
}

// TestRetiredAnswersLikeTerminal pins what every entry point answers
// about a terminal X, after the settle that made it terminal has
// committed — a definite and a speculative caller each — and that the
// call changes nothing: X's status, the sink (no verdict is reported
// twice), the caller's definiteness and the invariants. A terminal X
// keeps no record, and none of these calls gives it one.
func TestRetiredAnswersLikeTerminal(t *testing.T) {
	calls := []struct {
		name string
		do   func(tr *Tracker, r ids.Proc, x, y ids.AID) string
		want map[string]string // by X's state
	}{
		{"Status", func(tr *Tracker, r ids.Proc, x, y ids.AID) string {
			return tr.Status(x).String()
		}, map[string]string{"affirmed": "affirmed", "denied": "denied", "system-denied": "denied"}},
		{"Guess", func(tr *Tracker, r ids.Proc, x, y ids.AID) string {
			out, err := tr.Guess(r, x, 9)
			return fmt.Sprintf("result=%v opened=%v err=%v", out.Result, out.Interval.Valid(), err)
		}, map[string]string{
			"affirmed":      "result=true opened=false err=<nil>",
			"denied":        "result=false opened=false err=<nil>",
			"system-denied": "result=false opened=false err=<nil>",
		}},
		{"Classify", func(tr *Tracker, r ids.Proc, x, y ids.AID) string {
			return classifyBoth(tr, x, y)
		}, map[string]string{
			"affirmed":      "{x} settled=true orphan=false; {y,x} settled=false orphan=false",
			"denied":        "{x} settled=false orphan=true; {y,x} settled=false orphan=true",
			"system-denied": "{x} settled=false orphan=true; {y,x} settled=false orphan=true",
		}},
		{"Deliver", func(tr *Tracker, r ids.Proc, x, y ids.AID) string {
			out, err := tr.Deliver(r, []ids.AID{x}, 9)
			return fmt.Sprintf("orphan=%v opened=%v err=%v", out.Orphan, out.Interval.Valid(), err)
		}, map[string]string{
			"affirmed":      "orphan=false opened=false err=<nil>",
			"denied":        "orphan=true opened=false err=<nil>",
			"system-denied": "orphan=true opened=false err=<nil>",
		}},
		{"Affirm", func(tr *Tracker, r ids.Proc, x, y ids.AID) string {
			return fmt.Sprint(tr.Affirm(r, x))
		}, map[string]string{"affirmed": "<nil>", "denied": ErrConflict.Error(), "system-denied": "<nil>"}},
		{"Deny", func(tr *Tracker, r ids.Proc, x, y ids.AID) string {
			return fmt.Sprint(tr.Deny(r, x))
		}, map[string]string{"affirmed": ErrConflict.Error(), "denied": "<nil>", "system-denied": "<nil>"}},
		{"FreeOf", func(tr *Tracker, r ids.Proc, x, y ids.AID) string {
			return fmt.Sprint(tr.FreeOf(r, x))
		}, map[string]string{"affirmed": "<nil>", "denied": "<nil>", "system-denied": "<nil>"}},
		{"ApplyVerdict", func(tr *Tracker, r ids.Proc, x, y ids.AID) string {
			return fmt.Sprintf("affirm=%v deny=%v", tr.ApplyVerdict(x, true), tr.ApplyVerdict(x, false))
		}, map[string]string{
			"affirmed":      "affirm=<nil> deny=" + ErrConflict.Error(),
			"denied":        "affirm=" + ErrConflict.Error() + " deny=<nil>",
			"system-denied": "affirm=<nil> deny=<nil>",
		}},
		{"Materialize", func(tr *Tracker, r ids.Proc, x, y ids.AID) string {
			tr.Materialize([]ids.AID{x})
			return tr.Status(x).String() + "; " + classifyBoth(tr, x, y)
		}, map[string]string{
			"affirmed":      "affirmed; {x} settled=true orphan=false; {y,x} settled=false orphan=false",
			"denied":        "denied; {x} settled=false orphan=true; {y,x} settled=false orphan=true",
			"system-denied": "denied; {x} settled=false orphan=true; {y,x} settled=false orphan=true",
		}},
	}
	for _, st := range terminalStates {
		for _, speculative := range []bool{false, true} {
			for _, c := range calls {
				t.Run(fmt.Sprintf("%s/speculative=%v/%s", st.name, speculative, c.name), func(t *testing.T) {
					tr := New(WithShards(2))
					q, r := tr.Register(noopHooks{}), tr.Register(noopHooks{})
					x := st.build(t, tr, q)
					y := tr.NewAID()
					if speculative {
						mustGuess(t, tr, r, tr.NewAID(), 0)
					}
					before := tr.Status(x)
					var reported []string
					tr.SetVerdictSink(func(x ids.AID, affirmed bool) {
						reported = append(reported, fmt.Sprintf("%v:%v", x, affirmed))
					})
					if n := recordOf(tr, x); n != 0 {
						t.Fatalf("terminal %v keeps %d record", x, n)
					}
					got := c.do(tr, r, x, y)
					if want := c.want[st.name]; got != want {
						t.Fatalf("got  %s\nwant %s", got, want)
					}
					if after := tr.Status(x); after != before {
						t.Fatalf("status moved %v → %v", before, after)
					}
					if len(reported) != 0 {
						t.Fatalf("verdicts reported again: %s", strings.Join(reported, " "))
					}
					if tr.Definite(r) == speculative {
						t.Fatalf("Definite(R) = %v, want %v", tr.Definite(r), !speculative)
					}
					if n := recordOf(tr, x); n != 0 {
						t.Fatalf("%s rebuilt a record for retired %v", c.name, x)
					}
					if err := tr.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestLateTagAfterVerdictIsOrphan: a verdict that arrives before any
// message tagged with its AID — possible across the wire — settles an
// AID this tracker never saw, and the tag that arrives later must not
// bring it back as unresolved: the verdict never comes again, so the
// receiver would wait on it forever. A denied one orphans the tag.
func TestLateTagAfterVerdictIsOrphan(t *testing.T) {
	for _, affirmed := range []bool{true, false} {
		t.Run(fmt.Sprintf("affirmed=%v", affirmed), func(t *testing.T) {
			tr := New(WithShards(2))
			p := tr.Register(noopHooks{})
			x := ids.AID(3<<48 | 7)
			if err := tr.ApplyVerdict(x, affirmed); err != nil {
				t.Fatal(err)
			}
			tr.Materialize([]ids.AID{x})
			settled, orphan := tr.Settled([]ids.AID{x})
			out, err := tr.Deliver(p, []ids.AID{x}, 0)
			if err != nil || settled != affirmed || orphan == affirmed || out.Orphan == affirmed || out.Interval.Valid() {
				t.Fatalf("late tag: settled=%v orphan=%v deliver=%+v err=%v", settled, orphan, out, err)
			}
			if n := recordOf(tr, x); n != 0 {
				t.Fatalf("Materialize rebuilt a record for retired %v", x)
			}
		})
	}
}

// TestRetiredAllocBudget: asking about a retired AID reads two bits —
// Status, Materialize and classifying a tag set naming it allocate
// nothing.
func TestRetiredAllocBudget(t *testing.T) {
	for _, st := range terminalStates {
		t.Run(st.name, func(t *testing.T) {
			tr := New(WithShards(2))
			x := st.build(t, tr, tr.Register(noopHooks{}))
			tags := []ids.AID{x}
			for name, f := range map[string]func(){
				"Status":      func() { tr.Status(x) },
				"Materialize": func() { tr.Materialize(tags) },
				"Settled":     func() { tr.Settled(tags) },
			} {
				got := testing.AllocsPerRun(200, f)
				t.Logf("%s: %.1f allocations", name, got)
				if !raceEnabled && got != 0 {
					t.Errorf("%s of a retired AID: %.1f allocations, want 0", name, got)
				}
			}
		})
	}
}

// TestSettledStateFlat: the settled past costs bits, not records. After
// runs of guess→resolve jobs of different lengths — one in four denied —
// the tracker holds no assumption record and no interval, and its
// verdict pages grow by at most one page per 4096 AIDs per shard.
func TestSettledStateFlat(t *testing.T) {
	for _, jobs := range []int{1000, 4000} {
		t.Run(fmt.Sprint(jobs), func(t *testing.T) {
			tr := New(WithShards(2))
			judge, p := tr.Register(noopHooks{}), tr.Register(noopHooks{})
			for i := 0; i < jobs; i++ {
				x := tr.NewAID()
				mustGuess(t, tr, p, x, i)
				if err := tr.AttachEffect(p, func() {}, func() {}); err != nil {
					t.Fatal(err)
				}
				if i%4 == 0 {
					if err := tr.Deny(judge, x); err != nil {
						t.Fatal(err)
					}
					tr.TakePending(p)
				} else if err := tr.Affirm(judge, x); err != nil {
					t.Fatal(err)
				}
			}
			records, intervals, verdictPages := 0, 0, 0
			for _, s := range tr.shards {
				s.mu.RLock()
				records += len(s.aids)
				intervals += len(s.intervals)
				verdictPages += len(s.verdicts)
				s.mu.RUnlock()
			}
			if records != 0 || intervals != 0 {
				t.Fatalf("after %d jobs: %d assumption records, %d intervals; want 0 and 0", jobs, records, intervals)
			}
			shards := len(tr.shards)
			if max := shards * (1 + jobs/shards/4096); verdictPages > max {
				t.Fatalf("%d verdict pages for %d AIDs, want at most %d", verdictPages, jobs, max)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// recordOf reports whether x has a record (1) or not (0).
func recordOf(tr *Tracker, x ids.AID) int {
	s := tr.aidShard(x)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.aids[x]; ok {
		return 1
	}
	return 0
}

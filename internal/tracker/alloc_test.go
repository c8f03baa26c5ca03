package tracker

import (
	"slices"
	"testing"
	"time"

	"hope/internal/ids"
)

// TestTrackerAllocBudget holds, in tier-1, what the dependency-set layout
// is for: IDO, DOM and IHD are slices held by value, a settle's footprint
// lives on its stack, an interval's first commit effect sits inline in
// its record and a settle's first finalized intervals inline in its
// context. One storm job — a definite process mints X, guesses it and
// attaches an effect, a definite judge affirms it — allocates X's record,
// the interval, its IDO and X's DOM: 4, where the set-and-map layout
// allocated 22. A deny costs the same 4 (25): the rollback target is held
// by value and the notification list's first entries sit inline in the
// settle's context, so a rollback allocates nothing in the tracker.
// The deep case is the 65th guess of a process 64 guesses deep, denied at
// once: it copies 64 dependencies and walks a 65-interval chain, yet
// costs what the shallow deny does (50), because it writes one DOM, its
// new assumption's — the 64 it inherits already hold an earlier interval
// of the process — the rollback removes only the entries that point into
// the discarded interval, and the footprint only marks what it must not
// walk twice.
func TestTrackerAllocBudget(t *testing.T) {
	cases := []struct {
		name   string
		depth  int
		deny   bool
		budget float64
	}{
		{"affirm", 0, false, 4},
		{"deny", 0, true, 4},
		{"deep deny", 64, true, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := New(WithShards(2))
			judge, p := tr.Register(noopHooks{}), tr.Register(noopHooks{})
			for d := 0; d < c.depth; d++ {
				if _, err := tr.Guess(p, tr.NewAID(), d); err != nil {
					t.Fatal(err)
				}
			}
			job := func() {
				x := tr.NewAID()
				if _, err := tr.Guess(p, x, c.depth); err != nil {
					t.Fatal(err)
				}
				if err := tr.AttachEffect(p, func() {}, nil); err != nil {
					t.Fatal(err)
				}
				if c.deny {
					if err := tr.Deny(judge, x); err != nil {
						t.Fatal(err)
					}
					if _, ok := tr.TakePending(p); !ok {
						t.Fatal("deny left no rollback target")
					}
				} else if err := tr.Affirm(judge, x); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(500, job)
			t.Logf("%.1f allocations per job", got)
			if !raceEnabled && got > c.budget {
				t.Fatalf("%.1f allocations per job, budget %.0f: is a dependency set, the footprint, the commit list, the finalized list, the notification list or the rollback target back on the heap?", got, c.budget)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if n := tr.LiveIntervals(p); n != c.depth {
				t.Fatalf("%d live intervals after the jobs, want %d", n, c.depth)
			}
		})
	}
}

// TestDeepChainAllocBudget prices a chain built from scratch, one guess
// at a time: each guess mints its assumption, opens its interval and
// copies the IDO it inherits, and only the assumption it adds gets a DOM
// entry — the ones it inherits already hold an earlier interval of the
// chain. So a guess allocates the same few objects at any depth and a
// chain 64 deep costs O(depth) allocations; a DOM that took every
// interval of the chain grew each inherited DOM at every guess, and
// allocated 9.0 per guess at depth 64 against 7.1 at depth 16. The
// chain is torn down by denying its root and then, with nothing
// depending on them, the other assumptions, so every round starts from
// an empty tracker.
func TestDeepChainAllocBudget(t *testing.T) {
	tr := New(WithShards(2))
	judge := tr.Register(noopHooks{})
	perGuess := func(depth int) float64 {
		p := tr.Register(noopHooks{})
		xs := make([]ids.AID, depth)
		got := testing.AllocsPerRun(50, func() {
			for d := range xs {
				xs[d] = tr.NewAID()
				if _, err := tr.Guess(p, xs[d], d); err != nil {
					t.Fatal(err)
				}
			}
			for _, x := range xs {
				if err := tr.Deny(judge, x); err != nil {
					t.Fatal(err)
				}
			}
			if _, ok := tr.TakePending(p); !ok {
				t.Fatal("denying the root left no rollback target")
			}
		})
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return got / float64(depth)
	}
	shallow, deep := perGuess(16), perGuess(64)
	t.Logf("%.2f allocations per guess at depth 16, %.2f at depth 64", shallow, deep)
	if raceEnabled {
		return
	}
	if deep > 4.5 {
		t.Errorf("%.2f allocations per guess building a chain 64 deep, budget 4.5: does a guess write the DOM of the assumptions it inherits again?", deep)
	}
	if deep > shallow+0.25 {
		t.Errorf("allocations per guess grow with depth: %.2f at 64, %.2f at 16", deep, shallow)
	}
}

// TestGuessCostFlatInDepth is the timing beside it: the 65th guess of a
// process costs at most 3x its first. Each round builds 50 processes 64
// guesses deep and registers 50 fresh ones on the same tracker, whose
// shard maps are sized beforehand for all they will hold, then times the
// next guess of each process, one at a time. The medians over all rounds
// are compared: a guess that lands on a collection, a fresh page or a
// descheduled thread does not decide. Wall clock, so not under the race
// detector.
func TestGuessCostFlatInDepth(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock shape; the race detector distorts it")
	}
	const procs, depth, rounds = 50, 64, 11
	var first, deep []time.Duration
	for r := 0; r < rounds; r++ {
		tr := New()
		register := func(n int) []ids.Proc {
			ps := make([]ids.Proc, n)
			for i := range ps {
				ps[i] = tr.Register(noopHooks{})
			}
			return ps
		}
		// guessAll makes each of ps guess a fresh assumption, timing each
		// guess into times, and returns the assumptions with the times.
		guessAll := func(ps []ids.Proc, d int, times []time.Duration) ([]ids.AID, []time.Duration) {
			xs := make([]ids.AID, len(ps))
			for i := range xs {
				xs[i] = tr.NewAID()
			}
			for i, p := range ps {
				start := time.Now()
				_, err := tr.Guess(p, xs[i], d)
				times = append(times, time.Since(start))
				if err != nil {
					t.Fatal(err)
				}
			}
			return xs, times
		}
		judge, warm := tr.Register(noopHooks{}), register(procs*(depth+2))
		xs, _ := guessAll(warm, 0, nil)
		for _, x := range xs {
			if err := tr.Deny(judge, x); err != nil {
				t.Fatal(err)
			}
		}
		chains := register(procs)
		for d := 0; d < depth; d++ {
			guessAll(chains, d, nil)
		}
		_, deep = guessAll(chains, depth, deep)
		_, first = guessAll(register(procs), 0, first)
	}
	slices.Sort(first)
	slices.Sort(deep)
	f, d := first[len(first)/2], deep[len(deep)/2]
	t.Logf("median first guess %v, 65th guess %v", f, d)
	if d > 3*f {
		t.Errorf("the 65th guess costs %v, the first %v: more than 3x", d, f)
	}
}

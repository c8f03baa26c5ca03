package tracker

import "testing"

// TestTrackerAllocBudget holds, in tier-1, what the dependency-set layout
// is for: IDO, DOM and IHD are slices held by value, a settle's footprint
// lives on its stack, an interval's first commit effect sits inline in
// its record and a settle's first finalized intervals inline in its
// context. One storm job — a definite process mints X, guesses it and
// attaches an effect, a definite judge affirms it — allocates X's record,
// the interval, its IDO and X's DOM: 4, where the set-and-map layout
// allocated 22. A deny adds a rollback notification and target: 6 (25).
// The deep case is the 65th guess of a process 64 guesses deep, denied at
// once: it copies 64 dependencies and walks a 65-interval chain, yet
// costs what the shallow deny does (50), because the 64 DOM appends and
// removals reuse their slices' capacity and the footprint only marks what
// it must not walk twice.
func TestTrackerAllocBudget(t *testing.T) {
	cases := []struct {
		name   string
		depth  int
		deny   bool
		budget float64
	}{
		{"affirm", 0, false, 4},
		{"deny", 0, true, 6},
		{"deep deny", 64, true, 6},
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
					if tr.TakePending(p) == nil {
						t.Fatal("deny left no rollback target")
					}
				} else if err := tr.Affirm(judge, x); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(500, job)
			t.Logf("%.1f allocations per job", got)
			if !raceEnabled && got > c.budget {
				t.Fatalf("%.1f allocations per job, budget %.0f: is a dependency set, the footprint, the commit list or the finalized list back on the heap?", got, c.budget)
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

package vclock

import (
	"maps"
	"testing"
	"testing/quick"
)

func TestTickAndGet(t *testing.T) {
	v := New()
	v.Tick("P1")
	v.Tick("P1")
	v.Tick("P2")
	if v.counts["P1"] != 2 || v.counts["P2"] != 1 || v.counts["P3"] != 0 {
		t.Fatalf("components = %v", v.counts)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var v VC
	v.Tick("P1")
	if v.counts["P1"] != 1 {
		t.Fatalf("tick on zero value: %v", v.counts)
	}
	var w VC
	w.Merge(v)
	if w.counts["P1"] != 1 {
		t.Fatalf("merge into zero value: %v", w.counts)
	}
}

func TestMergeIsReceiveRule(t *testing.T) {
	sender := New()
	sender.Tick("P1")
	sender.Tick("P1")
	receiver := New()
	receiver.Tick("P2")
	receiver.Merge(sender)
	receiver.Tick("P2")
	if receiver.counts["P1"] != 2 || receiver.counts["P2"] != 2 {
		t.Fatalf("merged = %v", receiver.counts)
	}
}

func TestEqualAndClone(t *testing.T) {
	a := New()
	a.Tick("P1")
	c := a.Clone()
	if !maps.Equal(a.counts, c.counts) {
		t.Fatal("clone should equal original")
	}
	c.Tick("P1")
	if a.counts["P1"] != 1 {
		t.Fatal("clone shares state with original")
	}
}

// Property: merge is the least upper bound: every component of a and of
// b is ≤ m's for m = merge(a,b), and each of m's is one of theirs.
func TestQuickMergeLUB(t *testing.T) {
	build := func(ops []uint8) VC {
		v := New()
		procs := []string{"P1", "P2"}
		for _, op := range ops {
			v.Tick(procs[int(op)%len(procs)])
		}
		return v
	}
	leq := func(x, y VC) bool {
		for k, c := range x.counts {
			if c > y.counts[k] {
				return false
			}
		}
		return true
	}
	f := func(xs, ys []uint8) bool {
		a, b := build(xs), build(ys)
		m := a.Clone()
		m.Merge(b)
		for k, c := range m.counts {
			if c != a.counts[k] && c != b.counts[k] {
				return false
			}
		}
		return leq(a, m) && leq(b, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

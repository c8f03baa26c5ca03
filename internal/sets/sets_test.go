package sets

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var s Set[int]
	if !s.Empty() || s.Len() != 0 {
		t.Fatalf("zero set not empty: len=%d", s.Len())
	}
	if s.Has(1) {
		t.Fatal("zero set claims membership")
	}
	if !s.Add(1) {
		t.Fatal("Add into zero set failed")
	}
	if !s.Has(1) || s.Len() != 1 {
		t.Fatalf("after Add: has=%v len=%d", s.Has(1), s.Len())
	}
}

func TestNilReceiverReads(t *testing.T) {
	var s *Set[string]
	if s.Len() != 0 || !s.Empty() || s.Has("x") {
		t.Fatal("nil set should read as empty")
	}
	if got := s.Elems(); got != nil {
		t.Fatalf("nil set Elems = %v, want nil", got)
	}
	if !s.Remove("x") == false {
		t.Fatal("Remove on nil should report false")
	}
	c := s.Clone()
	if c == nil || !c.Empty() {
		t.Fatal("Clone of nil should be empty non-nil set")
	}
}

func TestAddRemove(t *testing.T) {
	s := New(1, 2, 3)
	if s.Add(2) {
		t.Fatal("re-adding existing element reported true")
	}
	if !s.Remove(2) {
		t.Fatal("removing existing element reported false")
	}
	if s.Remove(2) {
		t.Fatal("removing absent element reported true")
	}
	want := []int{1, 3}
	if got := s.Elems(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Elems = %v, want %v", got, want)
	}
}

func TestInsertionOrderPreserved(t *testing.T) {
	s := New[int]()
	var want []int
	for i := 9; i >= 0; i-- {
		s.Add(i)
		want = append(want, i)
	}
	if got := s.Elems(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Elems = %v, want insertion order %v", got, want)
	}
}

func TestReAddAfterRemoveMovesToEnd(t *testing.T) {
	s := New(1, 2, 3)
	s.Remove(1)
	s.Add(1)
	want := []int{2, 3, 1}
	if got := s.Elems(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Elems = %v, want %v", got, want)
	}
}

func TestCompaction(t *testing.T) {
	s := New[int]()
	for i := 0; i < 1000; i++ {
		s.Add(i)
	}
	for i := 0; i < 999; i++ {
		s.Remove(i)
	}
	if s.Len() != 1 || !s.Has(999) {
		t.Fatalf("after mass removal: len=%d", s.Len())
	}
	if len(s.order) != 1 {
		t.Fatalf("removed elements left behind: %d entries for 1 element", len(s.order))
	}
}

func TestUnionMinusIntersect(t *testing.T) {
	a := New(1, 2, 3)
	b := New(3, 4)
	if got := a.Union(b).Elems(); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("Union = %v", got)
	}
	if got := a.Minus(b).Elems(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Minus = %v", got)
	}
	if got := a.Intersect(b).Elems(); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("Intersect = %v", got)
	}
	// Operands must be unchanged.
	if !a.Equal(New(1, 2, 3)) || !b.Equal(New(3, 4)) {
		t.Fatal("set operations mutated operands")
	}
}

func TestSubsetEqual(t *testing.T) {
	a := New(1, 2)
	b := New(1, 2, 3)
	if !a.SubsetOf(b) {
		t.Fatal("a should be subset of b")
	}
	if b.SubsetOf(a) {
		t.Fatal("b should not be subset of a")
	}
	if !a.SubsetOf(a.Clone()) || !a.Equal(a.Clone()) {
		t.Fatal("set should equal its clone")
	}
	if a.Equal(b) {
		t.Fatal("different sets reported equal")
	}
	var empty *Set[int]
	if !empty.SubsetOf(a) {
		t.Fatal("empty is subset of everything")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(1, 2)
	c := a.Clone()
	c.Add(3)
	a.Remove(1)
	if a.Has(3) || !c.Has(1) {
		t.Fatal("Clone shares state with original")
	}
}

func TestElemsSafeDuringMutation(t *testing.T) {
	s := New(1, 2, 3, 4)
	// The transition-rule idiom: remove elements while ranging a snapshot.
	for _, e := range s.Elems() {
		if e%2 == 0 {
			s.Remove(e)
		}
	}
	if got := s.Elems(); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("Elems after mutation loop = %v", got)
	}
}

func TestAddAllRemoveAllClear(t *testing.T) {
	a := New(1)
	a.AddAll(New(2, 3))
	if !a.Equal(New(1, 2, 3)) {
		t.Fatalf("AddAll = %v", a)
	}
	a.RemoveAll(New(1, 3))
	if !a.Equal(New(2)) {
		t.Fatalf("RemoveAll = %v", a)
	}
	a.AddAll(nil)
	a.RemoveAll(nil)
	if !a.Equal(New(2)) {
		t.Fatalf("nil AddAll/RemoveAll changed set: %v", a)
	}
	a.Clear()
	if !a.Empty() {
		t.Fatal("Clear left elements")
	}
	a.Add(7)
	if !a.Equal(New(7)) {
		t.Fatal("set unusable after Clear")
	}
}

func TestString(t *testing.T) {
	s := New(3, 1, 2)
	if got := s.String(); got != "{1, 2, 3}" {
		t.Fatalf("String = %q", got)
	}
	if got := New[int]().String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

// Property: a Set behaves exactly like a reference map-based set under a
// random sequence of adds and removes.
func TestQuickAgainstReferenceModel(t *testing.T) {
	f := func(ops []int16) bool {
		s := New[int16]()
		ref := map[int16]bool{}
		for _, op := range ops {
			e := op / 2
			if op%2 == 0 {
				gotNew := s.Add(e)
				wantNew := !ref[e]
				ref[e] = true
				if gotNew != wantNew {
					return false
				}
			} else {
				got := s.Remove(e)
				want := ref[e]
				delete(ref, e)
				if got != want {
					return false
				}
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		for e := range ref {
			if !s.Has(e) {
				return false
			}
		}
		for _, e := range s.Elems() {
			if !ref[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Union and Minus satisfy (a ∪ b) \ b ⊆ a and a ⊆ (a ∪ b).
func TestQuickAlgebraLaws(t *testing.T) {
	mk := func(xs []uint8) *Set[uint8] { return New(xs...) }
	f := func(xs, ys []uint8) bool {
		a, b := mk(xs), mk(ys)
		u := a.Union(b)
		if !a.SubsetOf(u) || !b.SubsetOf(u) {
			return false
		}
		if !u.Minus(b).SubsetOf(a) {
			return false
		}
		if !a.Intersect(b).SubsetOf(a) || !a.Intersect(b).SubsetOf(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: iteration order is deterministic — two structurally identical
// histories of operations yield identical Elems sequences.
func TestQuickDeterministicOrder(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		build := func() []int {
			rng := rand.New(rand.NewSource(seed))
			s := New[int]()
			for i := 0; i < int(n); i++ {
				v := rng.Intn(16)
				if rng.Intn(3) == 0 {
					s.Remove(v)
				} else {
					s.Add(v)
				}
			}
			return s.Elems()
		}
		return reflect.DeepEqual(build(), build())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddHas(b *testing.B) {
	s := New[int]()
	for i := 0; i < b.N; i++ {
		s.Add(i % 1024)
		s.Has(i % 1024)
	}
}

func ExampleSet_String() {
	s := New("deny", "affirm", "guess")
	fmt.Println(s)
	// Output: {affirm, deny, guess}
}

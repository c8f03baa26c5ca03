// Package sets provides a small generic set type with deterministic
// iteration order.
//
// The HOPE semantics (Equations 3, 4, 7, 10, 12, 14, 16, 21 and 22 of the
// paper) are defined entirely in terms of set algebra over interval and
// assumption-identifier names: IDO ("I Depend On"), DOM ("Depends On Me")
// and IHD ("I Have Denied"). Model checking those equations requires that
// iterating a set visits elements in a reproducible order, otherwise two
// runs of the same schedule can diverge; a plain map[K]struct{} does not
// give that. Set is therefore one insertion-ordered slice: the sets the
// semantics machine builds hold a few names, where a linear scan costs
// less than hashing, and a removal closes the gap at once, so iteration
// never steps over a removed element. Membership is linear in the set's
// size; the concurrent tracker, whose sets grow with chain depth, keeps
// its own (internal/tracker).
package sets

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Set is a mutable set of comparable elements with deterministic,
// insertion-ordered iteration. The zero value is an empty set ready to use.
type Set[K comparable] struct {
	order []K // the members, in insertion order
}

// New returns a set containing the given elements.
func New[K comparable](elems ...K) *Set[K] {
	s := &Set[K]{}
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Len reports the number of elements in the set. A nil set is empty.
func (s *Set[K]) Len() int {
	if s == nil {
		return 0
	}
	return len(s.order)
}

// Empty reports whether the set has no elements. A nil set is empty.
func (s *Set[K]) Empty() bool { return s.Len() == 0 }

// Has reports whether e is a member of the set. A nil set has no members.
func (s *Set[K]) Has(e K) bool {
	return s != nil && slices.Contains(s.order, e)
}

// Add inserts e, reporting whether it was newly added.
func (s *Set[K]) Add(e K) bool {
	if slices.Contains(s.order, e) {
		return false
	}
	s.order = append(s.order, e)
	return true
}

// AddAll inserts every element of other into s.
func (s *Set[K]) AddAll(other *Set[K]) {
	other.Range(func(e K) bool { s.Add(e); return true })
}

// Remove deletes e, reporting whether it was present. The elements after
// e shift down, so insertion order is kept and nothing is left behind.
func (s *Set[K]) Remove(e K) bool {
	if s == nil {
		return false
	}
	i := slices.Index(s.order, e)
	if i < 0 {
		return false
	}
	s.order = slices.Delete(s.order, i, i+1)
	return true
}

// RemoveAll deletes every element of other from s.
func (s *Set[K]) RemoveAll(other *Set[K]) {
	other.Range(func(e K) bool { s.Remove(e); return true })
}

// Clear removes all elements.
func (s *Set[K]) Clear() {
	if s != nil {
		s.order = nil
	}
}

// Range calls fn for every element in insertion order until fn returns
// false, reporting whether the iteration ran to completion. It does not
// allocate; fn must not mutate the set (use Elems when the loop body
// removes elements).
func (s *Set[K]) Range(fn func(K) bool) bool {
	if s == nil {
		return true
	}
	for _, e := range s.order {
		if !fn(e) {
			return false
		}
	}
	return true
}

// Elems returns the elements in insertion order. The slice is a copy, so it
// is safe to mutate the set while ranging over the result — the idiom every
// transition rule that removes elements mid-iteration relies on.
func (s *Set[K]) Elems() []K {
	if s == nil {
		return nil
	}
	return slices.Clone(s.order)
}

// Clone returns an independent copy of the set.
func (s *Set[K]) Clone() *Set[K] {
	return &Set[K]{order: s.Elems()}
}

// Union returns a new set with every element of s and other.
func (s *Set[K]) Union(other *Set[K]) *Set[K] {
	out := s.Clone()
	out.AddAll(other)
	return out
}

// Minus returns a new set with the elements of s not in other.
func (s *Set[K]) Minus(other *Set[K]) *Set[K] {
	return s.filter(func(e K) bool { return !other.Has(e) })
}

// Intersect returns a new set with the elements common to s and other.
func (s *Set[K]) Intersect(other *Set[K]) *Set[K] {
	return s.filter(other.Has)
}

func (s *Set[K]) filter(keep func(K) bool) *Set[K] {
	out := &Set[K]{}
	s.Range(func(e K) bool {
		if keep(e) {
			out.order = append(out.order, e)
		}
		return true
	})
	return out
}

// SubsetOf reports whether every element of s is in other.
func (s *Set[K]) SubsetOf(other *Set[K]) bool {
	return s.Len() <= other.Len() && s.Range(other.Has)
}

// Equal reports whether s and other contain exactly the same elements.
func (s *Set[K]) Equal(other *Set[K]) bool {
	return s.Len() == other.Len() && s.SubsetOf(other)
}

// String renders the set as {a, b, c} with elements sorted by their
// fmt.Sprint form, so the output is order-independent and stable.
func (s *Set[K]) String() string {
	parts := make([]string, 0, s.Len())
	s.Range(func(e K) bool { parts = append(parts, fmt.Sprint(e)); return true })
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}

// Package vclock implements vector clocks, the causal-ordering metadata
// of optimistic recovery [Strom & Yemini 1985] whose transitive-dependency
// vectors the paper's dependency tracking generalizes.
//
// Nothing in the runtime uses it: recovery and internal/trace order
// committed events by commit index, and the wire sends no clock. Its one
// importer is the benchmark's vclock.merge probe.
package vclock

// VC is a vector clock: a map from process name to the count of events of
// that process known to have causally preceded the carrier. The zero
// value (nil map inside) is a valid, empty clock; use New or let methods
// allocate lazily.
type VC struct {
	counts map[string]uint64
}

// New returns an empty vector clock.
func New() VC { return VC{counts: make(map[string]uint64)} }

// Clone returns an independent copy.
func (v VC) Clone() VC {
	out := VC{counts: make(map[string]uint64, len(v.counts))}
	for k, c := range v.counts {
		out.counts[k] = c
	}
	return out
}

// Tick increments proc's component, returning the updated clock. The
// receiver is mutated (allocating if needed) and returned for chaining.
func (v *VC) Tick(proc string) VC {
	if v.counts == nil {
		v.counts = make(map[string]uint64)
	}
	v.counts[proc]++
	return *v
}

// Merge folds other into v component-wise by max — the receive rule.
func (v *VC) Merge(other VC) VC {
	if v.counts == nil {
		v.counts = make(map[string]uint64, len(other.counts))
	}
	for k, c := range other.counts {
		if c > v.counts[k] {
			v.counts[k] = c
		}
	}
	return *v
}

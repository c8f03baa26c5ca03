// Package leakclosure exercises the closure edge of the body graph: a
// literal defined outside the body, bound to one variable and called
// through it, runs under replay like any helper, so every rule sees
// inside it — the leaked guess, the captured store, the clock read.
package leakclosure

import (
	"time"

	"hope/internal/engine"
)

func Run(rt *engine.Runtime) error {
	peak := 0
	speculate := func(p *engine.Proc) {
		x := p.NewAID()
		p.Guess(x)     // want `\[specleak\] assumption "x" may reach the end of the body unresolved`
		peak++         // want `\[escape\] assignment to "peak", declared outside a helper reached from a process body`
		_ = time.Now() // want `\[nondeterminism\] call to time.Now`
		local := peak  // legal: reads are fine
		local++        // legal: the closure's own state
		p.Printf("%d\n", local)
	}

	// Bound to two literals: which one a call runs is not known
	// statically, so the graph does not follow it (documented false
	// negative).
	either := func(p *engine.Proc) { p.Guess(p.NewAID()) }
	if peak > 0 {
		either = func(p *engine.Proc) {}
	}

	return rt.Spawn("p", func(p *engine.Proc) error {
		speculate(p)
		either(p)
		return nil
	})
}

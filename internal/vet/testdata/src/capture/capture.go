// Package capture exercises escape's bare-identifier case: `x = v` on a captured x.
package capture

import "hope/internal/engine"

var hits int

func Run(rt *engine.Runtime) error {
	counter := 0
	total := 0
	return rt.Spawn("p", func(p *engine.Proc) error {
		counter++ // want `\[escape\] assignment to "counter"`
		total = 7 // want `\[escape\] assignment to "total"`
		hits++    // want `\[escape\] assignment to "hits"`

		local := 0
		local++ // legal: body-local state
		func() {
			local = 2   // legal: still local to the body
			counter = 3 // want `\[escape\] assignment to "counter"`
		}()

		p.Effect(func() { total = local }, nil) // legal: commit-time effect

		p.Printf("counter=%d total=%d\n", counter, total) // reads are fine
		return nil
	})
}

// Package escptr exercises the escape rule on pointer and field stores
// — the aliasing class a purely syntactic check cannot see: the store
// never names the captured variable on its left-hand side, so only the
// may-alias propagation connects it to memory outside the body.
package escptr

import "hope/internal/engine"

type counter struct{ n int }

func Run(rt *engine.Runtime) error {
	shared := &counter{}
	return rt.Spawn("p", func(p *engine.Proc) error {
		shared.n = 1 // want `store through a field of captured state \(rooted in "shared"`

		q := shared
		q.n++ // want `store through a field of captured state \(rooted in "q"`

		dst := &shared.n
		*dst = 2 // want `store through a captured pointer \(rooted in "dst"`

		local := counter{}
		local.n = 5 // legal: the struct lives in the body
		lp := &local
		lp.n = 6 // legal: still body-local memory
		p.Printf("n=%d\n", local.n)
		return nil
	})
}

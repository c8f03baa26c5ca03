// Package conflict exercises the conflict rule.
package conflict

import "hope/internal/engine"

func Run(rt *engine.Runtime) error {
	return rt.Spawn("p", func(p *engine.Proc) error {
		a := p.NewAID()
		if p.Guess(a) {
			p.Printf("optimistic path\n")
		}
		if err := p.Affirm(a); err != nil { // an if-init still always runs
			return err
		}
		_ = p.Deny(a) // want `both affirms and denies "a"`

		b := p.NewAID()
		if p.Guess(b) {
			_ = p.Affirm(b) // legal: the branches are exclusive
		} else {
			_ = p.Deny(b)
		}

		c := p.NewAID()
		p.Guess(c) // want `\[specleak\] assumption "c" may reach the end of the body unresolved`
		for i := 0; i < 2; i++ {
			if i == 0 {
				_ = p.Affirm(c) // legal: conditional inside the loop
			} else {
				_ = p.Deny(c)
			}
		}
		return nil
	})
}

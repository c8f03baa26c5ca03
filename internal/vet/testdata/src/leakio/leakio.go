// Package leakio exercises the speculative-I/O half of specleak:
// irrevocable output issued while an assumption is unresolved is
// flagged on top of the plain rawio finding; the same output before
// the guess or after the resolution is rawio's alone.
package leakio

import (
	"fmt"
	"os"

	"hope/internal/engine"
)

func Run(rt *engine.Runtime) error {
	return rt.Spawn("p", func(p *engine.Proc) error {
		fmt.Println("starting") // want `\[rawio\] call to fmt.Println` (nothing is pending yet)

		x := p.NewAID()
		if !p.Guess(x) {
			return nil // replay path: resolved
		}
		fmt.Println("optimistic") // want `\[rawio\] call to fmt.Println` `irrevocable I/O while assumption\(s\) "x" are unresolved`
		// Returning the write's error here would itself leak x: the
		// error path exits the body before the Affirm below.
		_ = os.WriteFile("out.txt", nil, 0o644) // want `\[rawio\] call to os.WriteFile` `irrevocable I/O while assumption\(s\) "x" are unresolved`
		if err := p.Affirm(x); err != nil {
			return err
		}
		fmt.Println("settled") // want `\[rawio\] call to fmt.Println` (the window is closed)
		return nil
	})
}

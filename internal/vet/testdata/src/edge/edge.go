// Package edge exercises body-discovery edge cases: named functions and
// method values passed to Spawn, local function variables, nested
// literals, transitive same-package helpers, Loop step functions, and
// code outside any body that must not be flagged.
package edge

import (
	"time"

	"hope/internal/engine"
)

// namedBody is passed to Spawn by name; its violations are reported.
func namedBody(p *engine.Proc) error {
	_ = time.Now() // want `call to time.Now`
	return helper()
}

// helper is reached transitively from namedBody.
func helper() error {
	_ = time.Now() // want `call to time.Now`
	return nil
}

// freestanding is never passed to Spawn; nothing here is reported.
func freestanding() time.Time {
	return time.Now()
}

type server struct{}

// step is used as a method value below.
func (server) step(p *engine.Proc) error {
	_ = time.Now() // want `call to time.Now`
	return nil
}

func Run(rt *engine.Runtime) error {
	if err := rt.Spawn("named", namedBody); err != nil {
		return err
	}
	var s server
	if err := rt.Spawn("method", s.step); err != nil {
		return err
	}
	local := func(p *engine.Proc) error {
		_ = time.Now() // want `call to time.Now`
		return nil
	}
	if err := rt.Spawn("local", local); err != nil {
		return err
	}
	if err := rt.Spawn("nested", func(p *engine.Proc) error {
		f := func() { _ = time.Now() } // want `call to time.Now`
		f()
		return nil
	}); err != nil {
		return err
	}
	// Only the step function replays; init and clone run outside it.
	return engine.Loop(rt, "loop",
		func() int { _ = freestanding(); return 0 }, // legal: init
		func(s int) int { return s },
		func(p *engine.Proc, s int) error {
			_ = time.Now() // want `call to time.Now`
			return engine.ErrStopLoop
		})
}

// Package obsuse exercises the write-only allowlist for the
// observability layer: obs hook methods (Annotate, Emit, ...) record an
// observation and return nothing, so calling them is legal even though
// obs internally reads clocks — while a call that reads observation
// state back into the body (Metrics, Snapshot, Now, ...) is flagged,
// and direct nondeterminism in the body is still flagged too.
package obsuse

import (
	"time"

	"hope/internal/engine"
	"hope/internal/obs"
)

func Run(o *obs.Observer) error {
	rt := engine.New(engine.WithObserver(o))
	return rt.Spawn("p", func(p *engine.Proc) error {
		// Legal: write-only hooks. The walk must not descend into obs
		// internals (which call time.Now and take locks) — a recorded
		// observation cannot feed back into the body's control flow.
		o.Annotate("p", "phase-1")
		o.MsgEnqueued(3)

		// Illegal: reading observation state back into the body. The
		// snapshot depends on what every other process has done so far,
		// so the value diverges under replay.
		_ = o.Metrics()  // want `reads observation state back`
		_ = o.Snapshot() // want `reads observation state back`

		// Still illegal: the body reading the clock itself diverges
		// under replay, no matter where the value flows afterwards.
		start := time.Now() // want `call to time.Now`
		o.Annotate("p", start.String())
		_ = time.Since(start) // want `call to time.Since`

		p.Printf("done\n")
		return nil
	})
}

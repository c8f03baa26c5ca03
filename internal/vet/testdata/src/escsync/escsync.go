// Package escsync exercises the escape rule on sync.Map and
// sync/atomic mutators and on raw channel sends — stores that are
// immediately visible to other goroutines and that rollback cannot
// undo.
package escsync

import (
	"sync"
	"sync/atomic"

	"hope/internal/engine"
)

func Run(rt *engine.Runtime) error {
	var m sync.Map
	var n atomic.Int64
	var raw int64
	done := make(chan int, 1)
	return rt.Spawn("p", func(p *engine.Proc) error {
		m.Store("k", 1)          // want `sync.Store on captured state`
		n.Add(1)                 // want `sync/atomic.Add on captured state`
		atomic.AddInt64(&raw, 1) // want `atomic.AddInt64 on captured state`

		done <- 1 // want `send on a channel declared outside the process body`

		_, _ = m.Load("k") // legal: reads do not mutate
		_ = n.Load()

		local := make(chan int, 1)
		local <- 1            // legal: body-local channel
		<-local               // want `\[nondeterminism\] raw channel receive`
		return p.Send("q", 1) // legal: the engine's logged send
	})
}

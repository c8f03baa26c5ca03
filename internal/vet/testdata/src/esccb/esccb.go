// Package esccb pins the escape rule's callback policy: stores inside a
// function literal passed as a call argument are not charged to the
// defining body — the literal runs in the callee's context, under
// p.Effect in the sanctioned commit-callback idiom. No diagnostics are
// expected in this file. (Higher-order invocation is a documented
// false-negative class.)
package esccb

import "hope/internal/engine"

func runAtCommit(p *engine.Proc, f func()) {
	p.Effect(f, nil)
}

func Run(rt *engine.Runtime) error {
	total := 0
	results := make([]int, 4)
	return rt.Spawn("p", func(p *engine.Proc) error {
		sum := 0
		p.Effect(func() { total = sum }, nil)       // legal: direct commit callback
		runAtCommit(p, func() { results[0] = sum }) // legal: commit callback via a helper
		p.Printf("total=%d first=%d\n", total, results[0])
		return nil
	})
}

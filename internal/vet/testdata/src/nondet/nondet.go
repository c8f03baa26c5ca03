// Package nondet exercises the nondeterminism rule.
package nondet

import (
	"math/rand"
	"os"
	"time"

	"hope/internal/engine"
)

// Setup runs outside any process body; clock reads here are legal.
func Setup() time.Time { return time.Now() }

func Run(rt *engine.Runtime, tick chan int) error {
	deadline := time.Now() // legal: outside a body
	_ = deadline
	return rt.Spawn("p", func(p *engine.Proc) error {
		start := time.Now()   // want `call to time.Now`
		_ = time.Since(start) // want `call to time.Since`
		_ = rand.Intn(10)     // want `call to rand.Intn`
		_ = os.Getenv("HOME") // want `call to os.Getenv`

		m := map[string]int{"a": 1}
		sum := 0
		for _, v := range m { // want `range over a map`
			sum += v
		}

		v := <-tick // want `raw channel receive`
		sum += v
		for v2 := range tick { // want `range over a channel`
			sum += v2
		}

		select { // want `select with 2 communication clauses`
		case <-tick:
		case x := <-tick:
			sum += x
		}

		go func() { sum++ }() // want `go statement`

		//hopevet:ignore nondeterminism -- fixture: suppression on the line above
		_ = time.Now()
		_ = time.Now() //hopevet:ignore -- fixture: same-line, all rules

		p.Printf("sum=%d\n", sum)
		return nil
	})
}

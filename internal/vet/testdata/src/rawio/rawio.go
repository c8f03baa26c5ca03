// Package rawio exercises the rawio rule.
package rawio

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"hope/internal/engine"
)

func Run(rt *engine.Runtime, f *os.File) error {
	fmt.Println("startup banner") // legal: outside a body
	return rt.Spawn("p", func(p *engine.Proc) error {
		fmt.Println("hello")               // want `call to fmt.Println`
		fmt.Printf("x=%d\n", 1)            // want `call to fmt.Printf`
		fmt.Fprintf(os.Stderr, "warn\n")   // want `fmt.Fprintf to os.Stderr`
		fmt.Fprintln(os.Stdout, "out")     // want `fmt.Fprintln to os.Stdout`
		log.Printf("legacy logger")        // want `call to log.Printf`
		println("builtin")                 // want `builtin println`
		_ = os.WriteFile("x", nil, 0o644)  // want `call to os.WriteFile`
		_, _ = f.WriteString("side floor") // want `File.WriteString`

		buf := new(bytes.Buffer)
		fmt.Fprintf(buf, "in-memory is fine") // legal: not an external stream

		p.Printf("buffered: %s\n", buf.String())               // legal
		p.Effect(func() { fmt.Println("committed") }, nil)     // legal: effect callback
		p.Effect(nil, func() { log.Printf("abort recorded") }) // legal: abort callback
		return nil
	})
}

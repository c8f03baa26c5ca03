// Command pipeline demonstrates optimistic pipeline parallelism over a
// chain of dependent stages (the Bacon-Strom scenario the paper cites
// [1]): stage k's input depends on stage k-1's output, which normally
// forces full serialization. Each stage instead predicts its input,
// starts immediately, and lets HOPE verify the chain; mispredictions roll
// back exactly the dependent suffix.
//
// The demo also traces committed events in commit order and verifies
// causal consistency of the released effects.
//
//	go run ./examples/pipeline -stages 5 -latency 3ms -mispredict 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hope"
	"hope/internal/trace"
)

// stageMsg carries a value from stage k to stage k+1.
type stageMsg struct {
	Stage int
	Val   int
}

func main() {
	stages := flag.Int("stages", 5, "pipeline depth")
	latency := flag.Duration("latency", 3*time.Millisecond, "one-way network latency")
	mispredict := flag.Int("mispredict", 2, "stage whose prediction is wrong (-1 for none)")
	flag.Parse()

	if err := run(*stages, *latency, *mispredict); err != nil {
		fmt.Fprintln(os.Stderr, "pipeline:", err)
		os.Exit(1)
	}
}

// work simulates stage k's computation on input v.
func work(k, v int) int { return v*2 + k }

func run(stages int, latency time.Duration, mispredict int) error {
	rec := trace.NewRecorder()
	rt := hope.New(hope.WithPolicy(hope.Policy{
		Output:  io.Discard,
		Latency: func(from, to string) time.Duration { return latency },
	}))
	defer rt.Shutdown()

	stageName := func(k int) string { return fmt.Sprintf("stage%d", k) }
	start := time.Now()

	for k := 0; k < stages; k++ {
		k := k
		if err := rt.Spawn(stageName(k), func(p *hope.Proc) error {
			input := 1 // stage 0's input is fixed
			var assumption hope.AID
			speculating := false
			if k > 0 {
				// Optimistically predict the input instead of waiting.
				// Each stage knows the pipeline's function, so its
				// prediction is right unless a stage was configured to
				// mispredict (standing in for data-dependent surprises).
				predicted := 1
				for j := 0; j < k; j++ {
					predicted = work(j, predicted)
				}
				if k == mispredict {
					predicted++ // injected wrong prediction
				}
				assumption = p.NewAID()
				if p.Guess(assumption) {
					input = predicted
					speculating = true
				} else {
					// Pessimistic: the prediction was wrong — use the
					// actual input, re-received after rollback.
					m, err := p.Recv()
					if err != nil {
						return err
					}
					input = m.Payload.(stageMsg).Val
				}
			}

			// Compute and forward immediately — speculatively when the
			// input was predicted. This is what overlaps the stages.
			out := work(k, input)
			token := fmt.Sprintf("s%d", k)
			if k+1 < stages {
				if err := p.Send(stageName(k+1), stageMsg{Stage: k, Val: out}); err != nil {
					return err
				}
				p.Effect(func() { rec.RecordSend(stageName(k), token, fmt.Sprintf("out=%d", out)) }, nil)
			} else {
				p.Effect(func() { rec.Record(stageName(k), "result", fmt.Sprintf("final=%d", out)) }, nil)
				p.Printf("pipeline result: %d\n", out)
			}

			// Verify after the fact: consume the real input and resolve
			// the assumption; a deny rolls this stage (and its
			// downstream) back to the guess.
			if speculating {
				m, err := p.Recv()
				if err != nil {
					return err
				}
				if m.Payload.(stageMsg).Val == input {
					if err := p.Affirm(assumption); err != nil {
						return err
					}
				} else {
					if err := p.Deny(assumption); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}

	rt.Quiesce()
	elapsed := time.Since(start)
	rt.Shutdown()
	for _, err := range rt.Wait() {
		if err != nil {
			return err
		}
	}

	// The expected result of the fully serial computation.
	want := 1
	for k := 0; k < stages; k++ {
		want = work(k, want)
	}
	fmt.Printf("stages=%d latency=%v mispredict=%d\n", stages, latency, mispredict)
	fmt.Printf("  expected %d, elapsed %v\n", want, elapsed.Round(time.Millisecond))
	fmt.Print("committed trace:\n", rec.Dump())
	if err := rec.CheckCausality(); err != nil {
		return err
	}
	fmt.Println("causal consistency of committed effects ✓")
	return nil
}

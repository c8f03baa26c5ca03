package hope_test

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"hope"
	"hope/internal/testutil"
)

// TestPublicAPIQuickstart is the README quickstart, as a test.
func TestPublicAPIQuickstart(t *testing.T) {
	var buf testutil.SyncBuffer
	rt := hope.New(hope.WithPolicy(hope.Policy{Output: &buf}))
	defer rt.Shutdown()

	if err := rt.Spawn("verifier", func(p *hope.Proc) error {
		m, err := p.Recv()
		if err != nil {
			return err
		}
		return p.Affirm(m.Payload.(hope.AID))
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Spawn("worker", func(p *hope.Proc) error {
		x := p.NewAID()
		if err := p.Send("verifier", x); err != nil {
			return err
		}
		if p.Guess(x) {
			p.Printf("optimistic result\n")
			return nil
		}
		p.Printf("pessimistic result\n")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, err := range rt.Wait() {
		t.Fatal(err)
	}
	if got := buf.String(); got != "optimistic result\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestPublicAPIDenyPath(t *testing.T) {
	rt := hope.New(hope.WithPolicy(hope.Policy{Output: io.Discard}))
	defer rt.Shutdown()
	var got atomic.Int64

	if err := rt.Spawn("verifier", func(p *hope.Proc) error {
		m, err := p.Recv()
		if err != nil {
			return err
		}
		return p.Deny(m.Payload.(hope.AID))
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Spawn("worker", func(p *hope.Proc) error {
		x := p.NewAID()
		if err := p.Send("verifier", x); err != nil {
			return err
		}
		if p.Guess(x) {
			got.Store(1)
		} else {
			got.Store(2)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, err := range rt.Wait() {
		t.Fatal(err)
	}
	if got.Load() != 2 {
		t.Fatalf("got %d, want pessimistic path", got.Load())
	}
}

func TestPublicErrors(t *testing.T) {
	rt := hope.New(hope.WithPolicy(hope.Policy{Output: io.Discard}))
	defer rt.Shutdown()
	if err := rt.Spawn("p", func(p *hope.Proc) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := rt.Spawn("p", func(p *hope.Proc) error { return nil }); !errors.Is(err, hope.ErrDuplicateProc) {
		t.Fatalf("duplicate spawn error = %v", err)
	}
}

func TestWithLatencyOption(t *testing.T) {
	rt := hope.New(hope.WithPolicy(hope.Policy{
		Output:  io.Discard,
		Latency: func(from, to string) time.Duration { return time.Millisecond },
	}))
	defer rt.Shutdown()
	start := time.Now()
	done := make(chan struct{})
	if err := rt.Spawn("b", func(p *hope.Proc) error {
		_, err := p.Recv()
		close(done)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Spawn("a", func(p *hope.Proc) error { return p.Send("b", 1) }); err != nil {
		t.Fatal(err)
	}
	<-done
	if time.Since(start) < time.Millisecond {
		t.Fatal("latency model not applied")
	}
	rt.Wait()
}

// Example demonstrates the guess/affirm flow with buffered output.
func Example() {
	var buf testutil.SyncBuffer
	rt := hope.New(hope.WithPolicy(hope.Policy{Output: &buf}))
	defer rt.Shutdown()

	rt.Spawn("verifier", func(p *hope.Proc) error {
		m, _ := p.Recv()
		return p.Affirm(m.Payload.(hope.AID))
	})
	rt.Spawn("worker", func(p *hope.Proc) error {
		x := p.NewAID()
		p.Send("verifier", x)
		if p.Guess(x) {
			p.Printf("fast path taken\n")
		} else {
			p.Printf("slow path taken\n")
		}
		return nil
	})
	rt.Wait()
	fmt.Print(buf.String())
	// Output: fast path taken
}

// ExampleLoop demonstrates a long-running accumulator with bounded replay
// memory.
func ExampleLoop() {
	rt := hope.New(hope.WithPolicy(hope.Policy{Output: io.Discard}))
	defer rt.Shutdown()

	type state struct{ sum int }
	result := make(chan int, 1)

	hope.Loop(rt, "acc",
		func() *state { return &state{} },
		func(s *state) *state { cp := *s; return &cp },
		func(p *hope.Proc, s *state) error {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			v := m.Payload.(int)
			if v < 0 {
				result <- s.sum
				return hope.ErrStopLoop
			}
			s.sum += v
			return nil
		})

	rt.Spawn("src", func(p *hope.Proc) error {
		for i := 1; i <= 4; i++ {
			p.Send("acc", i)
		}
		return p.Send("acc", -1)
	})

	fmt.Println(<-result)
	// Output: 10
}

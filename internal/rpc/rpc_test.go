package rpc

import (
	"errors"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hope/internal/engine"
	"hope/internal/testutil"
)

// echoServer replies with f(req).
func serveFunc(t *testing.T, rt *engine.Runtime, name string, f func(any) any) {
	t.Helper()
	if err := Serve(rt, name, f); err != nil {
		t.Fatalf("Serve(%s): %v", name, err)
	}
}

// runOwner spawns the owner body and waits for quiescence, then shuts
// down (servers and worrywarts loop forever).
func runOwner(t *testing.T, rt *engine.Runtime, name string, body func(*engine.Proc) error) {
	t.Helper()
	if err := rt.Spawn(name, body); err != nil {
		t.Fatalf("Spawn(%s): %v", name, err)
	}
	settle(t, rt)
}

// settle waits for quiescence, shuts down and reports process errors.
func settle(t *testing.T, rt *engine.Runtime) {
	t.Helper()
	done := make(chan struct{})
	go func() { rt.Quiesce(); rt.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("quiesce timed out")
	}
	for _, err := range rt.Wait() {
		t.Errorf("process error: %v", err)
	}
}

func TestSyncCall(t *testing.T) {
	rt := engine.New(engine.WithOutput(io.Discard))
	serveFunc(t, rt, "adder", func(req any) any { return req.(int) + 1 })
	c, err := NewClient(rt, "caller")
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	runOwner(t, rt, "caller", func(p *engine.Proc) error {
		s := c.Session(p)
		v, err := s.Call("adder", 41)
		if err != nil {
			return err
		}
		got.Store(int64(v.(int)))
		return nil
	})
	if got.Load() != 42 {
		t.Fatalf("got %d, want 42", got.Load())
	}
}

func TestStreamCallAccuratePrediction(t *testing.T) {
	rt := engine.New(engine.WithOutput(io.Discard))
	serveFunc(t, rt, "svc", func(req any) any { return req.(int) * 2 })
	c, err := NewClient(rt, "caller")
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	var acc atomic.Bool
	runOwner(t, rt, "caller", func(p *engine.Proc) error {
		s := c.Session(p)
		v, accurate, err := s.StreamCall("svc", 21, 42) // correct prediction
		if err != nil {
			return err
		}
		got.Store(int64(v.(int)))
		acc.Store(accurate)
		return nil
	})
	if got.Load() != 42 || !acc.Load() {
		t.Fatalf("got=%d accurate=%v, want 42/true", got.Load(), acc.Load())
	}
}

// awaitCallerBlocked polls until the process named caller is blocked
// waiting for an assumption's verdict — the horizon's wait.
func awaitCallerBlocked(t *testing.T, rt *engine.Runtime) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, line := range strings.Split(rt.DebugString(), "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[0] == "caller" && f[1] == "blocked" && strings.Contains(line, "wait=aid") {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("caller never blocked on a verdict\n%s", rt.DebugString())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStreamCallMispredictionRollsBack(t *testing.T) {
	rt := engine.New(engine.WithOutput(io.Discard))
	// The reply waits until the caller has guessed: a deny that landed
	// first would short-circuit the guess, and the speculative path the
	// test looks for would never run.
	guessed := make(chan struct{})
	var once sync.Once
	serveFunc(t, rt, "svc", func(req any) any { <-guessed; return req.(int) * 2 })
	c, err := NewClient(rt, "caller")
	if err != nil {
		t.Fatal(err)
	}
	var speculativeSeen, final atomic.Int64
	var acc atomic.Bool
	acc.Store(true)
	runOwner(t, rt, "caller", func(p *engine.Proc) error {
		s := c.Session(p)
		v, accurate, err := s.StreamCall("svc", 21, 99) // wrong prediction
		if err != nil {
			return err
		}
		if accurate {
			speculativeSeen.Store(int64(v.(int))) // overwritten state is fine: atomic survives replay, shows speculation ran
			once.Do(func() { close(guessed) })
		} else {
			final.Store(int64(v.(int)))
			acc.Store(false)
		}
		return nil
	})
	if acc.Load() {
		t.Fatal("misprediction not detected")
	}
	if final.Load() != 42 {
		t.Fatalf("final = %d, want actual 42", final.Load())
	}
	if speculativeSeen.Load() != 99 {
		t.Fatalf("speculative path did not run with prediction (saw %d)", speculativeSeen.Load())
	}
}

func TestStreamCallSpeculativeEffectsGated(t *testing.T) {
	// Output produced under a wrong prediction must never commit.
	buf := &testutil.SyncBuffer{}
	rt := engine.New(engine.WithOutput(buf))
	serveFunc(t, rt, "svc", func(req any) any { return "actual" })
	c, err := NewClient(rt, "caller")
	if err != nil {
		t.Fatal(err)
	}
	runOwner(t, rt, "caller", func(p *engine.Proc) error {
		s := c.Session(p)
		v, _, err := s.StreamCall("svc", 0, "guess")
		if err != nil {
			return err
		}
		p.Printf("result=%v\n", v)
		return nil
	})
	if got := buf.String(); got != "result=actual\n" {
		t.Fatalf("output = %q, want only the actual result", got)
	}
}

func TestChainedStreamCalls(t *testing.T) {
	// Several outstanding streamed calls; an early misprediction rolls
	// back the later calls too, which reissue with fresh assumptions.
	rt := engine.New(engine.WithOutput(io.Discard))
	// Mispredictions through a shared server: the ordered server keeps
	// resolution dependencies well-founded (see package doc).
	if err := ServeOrdered(rt, "svc", func(req any) any { return req.(int) + 100 }); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(rt, "caller")
	if err != nil {
		t.Fatal(err)
	}
	var sum atomic.Int64
	runOwner(t, rt, "caller", func(p *engine.Proc) error {
		s := c.Session(p)
		total := 0
		v1, _, err := s.StreamCall("svc", 1, 101) // right
		if err != nil {
			return err
		}
		total += v1.(int)
		v2, _, err := s.StreamCall("svc", 2, 999) // wrong → rollback here
		if err != nil {
			return err
		}
		total += v2.(int)
		v3, _, err := s.StreamCall("svc", 3, 103) // right (re-executed after rollback)
		if err != nil {
			return err
		}
		total += v3.(int)
		sum.Store(int64(total))
		return nil
	})
	if sum.Load() != 101+102+103 {
		t.Fatalf("sum = %d, want %d", sum.Load(), 101+102+103)
	}
}

func TestManyStreamCallsMixedAccuracy(t *testing.T) {
	rt := engine.New(engine.WithOutput(io.Discard))
	if err := ServeOrdered(rt, "svc", func(req any) any { return req.(int) % 3 }); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(rt, "caller")
	if err != nil {
		t.Fatal(err)
	}
	var sum atomic.Int64
	const n = 30
	runOwner(t, rt, "caller", func(p *engine.Proc) error {
		s := c.Session(p)
		total := 0
		for i := 0; i < n; i++ {
			// Predict 0 always: right for i%3==0, wrong otherwise.
			v, _, err := s.StreamCall("svc", i, 0)
			if err != nil {
				return err
			}
			total += v.(int)
		}
		sum.Store(int64(total))
		return nil
	})
	want := int64(0)
	for i := 0; i < n; i++ {
		want += int64(i % 3)
	}
	if sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

// TestWorryWartLogBounded: a WorryWart keeps one step's replay log, not
// its history. After 200 streamed echo calls over 4 verifiers, one in
// four predicted wrong, every verifier is blocked waiting for its next
// job with a log of at most 4 entries.
func TestWorryWartLogBounded(t *testing.T) {
	const verifiers, n = 4, 200
	rt := engine.New(engine.WithOutput(io.Discard))
	defer rt.Shutdown()
	if err := ServeOrdered(rt, "svc", func(req any) any { return req }); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(rt, "caller", WithVerifiers(verifiers))
	if err != nil {
		t.Fatal(err)
	}
	var sum atomic.Int64
	if err := rt.Spawn("caller", func(p *engine.Proc) error {
		s := c.Session(p)
		total := 0
		for i := 0; i < n; i++ {
			predicted := i
			if i%4 == 0 {
				predicted = -1
			}
			v, _, err := s.StreamCall("svc", i, predicted)
			if err != nil {
				return err
			}
			total += v.(int)
		}
		sum.Store(int64(total))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	quiesced := make(chan struct{})
	go func() { rt.Quiesce(); close(quiesced) }()
	select {
	case <-quiesced:
	case <-time.After(15 * time.Second):
		t.Fatalf("quiesce timed out\n%s", rt.DebugString())
	}
	if want := int64(n * (n - 1) / 2); sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
	dbg := rt.DebugString()
	logLen := regexp.MustCompile(`log=(\d+)`)
	seen := 0
	for _, line := range strings.Split(dbg, "\n") {
		if !strings.Contains(line, "caller#ww") {
			continue
		}
		seen++
		m := logLen.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("no log length in %q", line)
		}
		if l, _ := strconv.Atoi(m[1]); l > 4 {
			t.Errorf("a WorryWart's log holds %d entries after %d calls:\n%s", l, n, line)
		}
	}
	if seen != verifiers {
		t.Fatalf("found %d WorryWarts, want %d:\n%s", seen, verifiers, dbg)
	}
}

// TestStreamCallHorizonIsVerifierPool: with every reply held, the caller
// issues one call per verifier and enters the next, which waits for the
// verdict of the first call its verifier is checking. Once the replies
// go out, every call commits.
func TestStreamCallHorizonIsVerifierPool(t *testing.T) {
	const verifiers = 3
	buf := &testutil.SyncBuffer{}
	rt := engine.New(engine.WithOutput(buf))
	release := make(chan struct{})
	serveFunc(t, rt, "svc", func(req any) any { <-release; return req })
	c, err := NewClient(rt, "caller", WithVerifiers(verifiers))
	if err != nil {
		t.Fatal(err)
	}
	var entered atomic.Int64
	if err := rt.Spawn("caller", func(p *engine.Proc) error {
		s := c.Session(p)
		for i := 0; i < 3*verifiers; i++ {
			if n := int64(i + 1); n > entered.Load() {
				entered.Store(n)
			}
			v, _, err := s.StreamCall("svc", i, i)
			if err != nil {
				return err
			}
			p.Printf("%d\n", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	awaitCallerBlocked(t, rt)
	if n := entered.Load(); n != verifiers+1 {
		t.Errorf("caller entered %d calls before the first reply, want %d", n, verifiers+1)
	}
	close(release)
	settle(t, rt)
	var want strings.Builder
	for i := 0; i < 3*verifiers; i++ {
		fmt.Fprintf(&want, "%d\n", i)
	}
	if got := buf.String(); got != want.String() {
		t.Fatalf("committed %q, want every call's reply %q", got, want.String())
	}
}

// TestStreamCallHorizonShutdown: a call waiting at the horizon returns
// ErrShutdown when the runtime shuts down.
func TestStreamCallHorizonShutdown(t *testing.T) {
	rt := engine.New(engine.WithOutput(io.Discard))
	release := make(chan struct{})
	serveFunc(t, rt, "svc", func(req any) any { <-release; return req })
	c, err := NewClient(rt, "caller", WithVerifiers(1))
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 1)
	if err := rt.Spawn("caller", func(p *engine.Proc) error {
		s := c.Session(p)
		if _, _, err := s.StreamCall("svc", 1, 1); err != nil {
			return err
		}
		_, _, err := s.StreamCall("svc", 2, 2)
		errs <- err
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	awaitCallerBlocked(t, rt)
	rt.Shutdown()
	select {
	case err := <-errs:
		if !errors.Is(err, engine.ErrShutdown) {
			t.Fatalf("StreamCall at the horizon returned %v, want ErrShutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not release the waiting StreamCall")
	}
	close(release)
	rt.Wait()
}

func TestStreamedFasterThanSyncUnderLatency(t *testing.T) {
	// The paper's performance claim in miniature: with link latency and
	// accurate predictions, N streamed calls complete in ~1 round trip
	// instead of N.
	const delay = 5 * time.Millisecond
	const n = 8

	run := func(streamed bool) time.Duration {
		rt := engine.New(
			engine.WithOutput(io.Discard),
			engine.WithLatency(func(from, to string) time.Duration { return delay }),
		)
		serveFunc(t, rt, "svc", func(req any) any { return req.(int) })
		c, err := NewClient(rt, "caller")
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		runOwner(t, rt, "caller", func(p *engine.Proc) error {
			s := c.Session(p)
			for i := 0; i < n; i++ {
				if streamed {
					if _, _, err := s.StreamCall("svc", i, i); err != nil {
						return err
					}
				} else {
					if _, err := s.Call("svc", i); err != nil {
						return err
					}
				}
			}
			return nil
		})
		return time.Since(start)
	}

	sync := run(false)
	stream := run(true)
	if stream >= sync {
		t.Fatalf("streamed %v not faster than sync %v", stream, sync)
	}
	if sync < time.Duration(n)*2*delay {
		t.Fatalf("sync too fast (%v) — latency model inactive?", sync)
	}
	t.Logf("sync=%v streamed=%v speedup=%.1fx", sync, stream, float64(sync)/float64(stream))
}

func TestServerStateful(t *testing.T) {
	// A stateful server (counter) stays consistent across speculation:
	// HOPE rolls its state back with the orphaned requests.
	rt := engine.New(engine.WithOutput(io.Discard))
	if err := ServeStateful(rt, "counter", func() Handler {
		counter := 0 // rebuilt per body attempt: replay-safe
		return func(req any) any {
			counter += req.(int)
			return counter
		}
	}); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(rt, "caller")
	if err != nil {
		t.Fatal(err)
	}
	var final atomic.Int64
	runOwner(t, rt, "caller", func(p *engine.Proc) error {
		s := c.Session(p)
		v1, _, err := s.StreamCall("counter", 5, 5) // right: counter=5
		if err != nil {
			return err
		}
		v2, _, err := s.StreamCall("counter", 5, 0) // wrong: actual 10
		if err != nil {
			return err
		}
		final.Store(int64(v1.(int) + v2.(int)))
		return nil
	})
	if final.Load() != 15 {
		t.Fatalf("final = %d, want 15", final.Load())
	}
}

func BenchmarkSyncVsStream(b *testing.B) {
	const chunk = 50 // bounded sessions: unbounded ones accumulate chain algebra
	for _, mode := range []string{"sync", "stream"} {
		b.Run(mode, func(b *testing.B) {
			remaining := b.N
			for remaining > 0 {
				n := remaining
				if n > chunk {
					n = chunk
				}
				remaining -= n
				rt := engine.New(engine.WithOutput(io.Discard))
				if err := Serve(rt, "svc", func(req any) any { return req }); err != nil {
					b.Fatal(err)
				}
				c, err := NewClient(rt, "caller")
				if err != nil {
					b.Fatal(err)
				}
				done := make(chan struct{}, 1)
				err = rt.Spawn("caller", func(p *engine.Proc) error {
					s := c.Session(p)
					for i := 0; i < n; i++ {
						if mode == "sync" {
							if _, err := s.Call("svc", i); err != nil {
								return err
							}
						} else {
							if _, _, err := s.StreamCall("svc", i, i); err != nil {
								return err
							}
						}
					}
					select {
					case done <- struct{}{}:
					default:
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				<-done
				rt.Quiesce()
				rt.Shutdown()
				rt.Wait()
			}
		})
	}
}

package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hope/internal/testutil"
)

// newRT builds a runtime writing output into a buffer.
func newRT(t *testing.T, opts ...Option) (*Runtime, *testutil.SyncBuffer) {
	t.Helper()
	buf := &testutil.SyncBuffer{}
	rt := New(append([]Option{WithOutput(buf)}, opts...)...)
	t.Cleanup(rt.Shutdown)
	return rt, buf
}

func spawn(t *testing.T, rt *Runtime, name string, body func(*Proc) error) {
	t.Helper()
	if err := rt.Spawn(name, body); err != nil {
		t.Fatalf("Spawn(%s): %v", name, err)
	}
}

func waitClean(t *testing.T, rt *Runtime) {
	t.Helper()
	done := make(chan []error, 1)
	go func() { done <- rt.Wait() }()
	select {
	case errs := <-done:
		for _, err := range errs {
			t.Errorf("process error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Wait timed out\n%s", rt.DebugString())
	}
}

// --- basic primitives --------------------------------------------------------

func TestGuessAffirmCommitsEffects(t *testing.T) {
	rt, buf := newRT(t)
	var got atomic.Int64
	aidCh := make(chan AID, 1)

	spawn(t, rt, "worker", func(p *Proc) error {
		x := p.NewAID()
		aidCh <- x
		if p.Guess(x) {
			got.Store(1)
			p.Printf("optimistic\n")
		} else {
			got.Store(2)
			p.Printf("pessimistic\n")
		}
		return nil
	})
	spawn(t, rt, "verifier", func(p *Proc) error {
		return p.Affirm(<-aidCh)
	})
	waitClean(t, rt)
	if got.Load() != 1 {
		t.Fatalf("path = %d, want optimistic", got.Load())
	}
	if buf.String() != "optimistic\n" {
		t.Fatalf("output = %q", buf.String())
	}
}

func TestGuessDenyRollsBackAndAborts(t *testing.T) {
	rt, buf := newRT(t)
	aidCh := make(chan AID, 1)
	var aborted atomic.Bool

	spawn(t, rt, "worker", func(p *Proc) error {
		x := p.NewAID()
		if p.Guess(x) {
			p.Effect(func() {}, func() { aborted.Store(true) })
			p.Printf("optimistic\n")
			// Published only once the guess is open and its effects are
			// registered: a verifier that denied earlier would leave
			// nothing to roll back or abort.
			aidCh <- x
		} else {
			p.Printf("pessimistic\n")
		}
		return nil
	})
	spawn(t, rt, "verifier", func(p *Proc) error {
		return p.Deny(<-aidCh)
	})
	waitClean(t, rt)
	if buf.String() != "pessimistic\n" {
		t.Fatalf("output = %q, want pessimistic only", buf.String())
	}
	if !aborted.Load() {
		t.Fatal("abort effect did not run")
	}
}

func TestSelfAffirmAndSelfDeny(t *testing.T) {
	rt, buf := newRT(t)
	spawn(t, rt, "affirmer", func(p *Proc) error {
		x := p.NewAID()
		if p.Guess(x) {
			p.Printf("A-opt\n")
			return p.Affirm(x)
		}
		p.Printf("A-pess\n")
		return nil
	})
	spawn(t, rt, "denier", func(p *Proc) error {
		y := p.NewAID()
		if p.Guess(y) {
			p.Printf("D-opt\n") // buffered, then aborted by the deny
			return p.Deny(y)
		}
		p.Printf("D-pess\n")
		return nil
	})
	waitClean(t, rt)
	out := buf.String()
	if !strings.Contains(out, "A-opt\n") || strings.Contains(out, "A-pess") {
		t.Errorf("affirmer output wrong: %q", out)
	}
	if !strings.Contains(out, "D-pess\n") || strings.Contains(out, "D-opt") {
		t.Errorf("denier output wrong: %q", out)
	}
}

func TestRollbackRestartCount(t *testing.T) {
	rt, _ := newRT(t)
	aidCh := make(chan AID, 1)
	var worker *Proc
	var captured sync.Once

	spawn(t, rt, "worker", func(p *Proc) error {
		captured.Do(func() { worker = p })
		x := p.NewAID()
		if p.Guess(x) {
			aidCh <- x // only once the guess is open, so the deny rolls it back
		}
		return nil
	})
	spawn(t, rt, "verifier", func(p *Proc) error {
		return p.Deny(<-aidCh)
	})
	waitClean(t, rt)
	if worker.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1", worker.Restarts())
	}
}

// --- messages ----------------------------------------------------------------

func TestMessageCascade(t *testing.T) {
	// The §3 scenario: speculative sender, dependent receiver, denial
	// rolls both back, pessimistic value converges.
	for _, deny := range []bool{false, true} {
		name := map[bool]string{false: "affirm", true: "deny"}[deny]
		t.Run(name, func(t *testing.T) {
			rt, _ := newRT(t)
			aidCh := make(chan AID, 1)
			var final atomic.Int64

			// Receiver first: see TestManyProcessesStress.
			spawn(t, rt, "receiver", func(p *Proc) error {
				m, err := p.Recv()
				if err != nil {
					return err
				}
				v, ok := m.Payload.(int)
				if !ok {
					return fmt.Errorf("payload %T", m.Payload)
				}
				final.Store(int64(v))
				return nil
			})
			spawn(t, rt, "sender", func(p *Proc) error {
				x := p.NewAID()
				select {
				case aidCh <- x:
				default:
				}
				if p.Guess(x) {
					return p.Send("receiver", 10)
				}
				return p.Send("receiver", 5)
			})
			spawn(t, rt, "verifier", func(p *Proc) error {
				x := <-aidCh
				if deny {
					return p.Deny(x)
				}
				return p.Affirm(x)
			})
			waitClean(t, rt)
			want := int64(10)
			if deny {
				want = 5
			}
			if final.Load() != want {
				t.Fatalf("receiver value = %d, want %d", final.Load(), want)
			}
		})
	}
}

func TestTransitiveCascade(t *testing.T) {
	// P1 → P2 → P3 speculative pipeline; denial unwinds all three.
	rt, _ := newRT(t)
	aidCh := make(chan AID, 1)
	var final atomic.Int64

	// Receivers first: see TestManyProcessesStress.
	spawn(t, rt, "tail", func(p *Proc) error {
		m, err := p.Recv()
		if err != nil {
			return err
		}
		final.Store(int64(m.Payload.(int) + 1))
		return nil
	})
	spawn(t, rt, "mid", func(p *Proc) error {
		m, err := p.Recv()
		if err != nil {
			return err
		}
		return p.Send("tail", m.Payload.(int)*2)
	})
	spawn(t, rt, "head", func(p *Proc) error {
		x := p.NewAID()
		select {
		case aidCh <- x:
		default:
		}
		if p.Guess(x) {
			return p.Send("mid", 100)
		}
		return p.Send("mid", 1)
	})
	spawn(t, rt, "verifier", func(p *Proc) error {
		return p.Deny(<-aidCh)
	})
	waitClean(t, rt)
	if final.Load() != 3 { // 2*1 + 1
		t.Fatalf("tail value = %d, want 3", final.Load())
	}
}

func TestAIDSharedThroughPayload(t *testing.T) {
	// AIDs travel in messages, like the paper's aid_init values.
	rt, _ := newRT(t)
	var final atomic.Int64

	// Receiver first: see TestManyProcessesStress.
	spawn(t, rt, "resolver", func(p *Proc) error {
		m, err := p.Recv()
		if err != nil {
			return err
		}
		return p.Deny(m.Payload.(AID))
	})
	spawn(t, rt, "guesser", func(p *Proc) error {
		x := p.NewAID()
		if err := p.Send("resolver", x); err != nil {
			return err
		}
		if p.Guess(x) {
			final.Store(1)
		} else {
			final.Store(2)
		}
		return nil
	})
	waitClean(t, rt)
	if final.Load() != 2 {
		t.Fatalf("final = %d, want pessimistic 2", final.Load())
	}
}

func TestValidMessageRedeliveredAfterUnrelatedRollback(t *testing.T) {
	// A message consumed inside a rolled-back interval, but tagged by no
	// denied assumption, must be re-delivered to the re-execution.
	rt, _ := newRT(t)
	aidCh := make(chan AID, 1)
	var got atomic.Int64

	spawn(t, rt, "consumer", func(p *Proc) error {
		x := p.NewAID()
		select {
		case aidCh <- x:
		default:
		}
		if p.Guess(x) {
			m, err := p.Recv() // consumed speculatively
			if err != nil {
				return err
			}
			_ = m
			return nil
		}
		// Pessimistic path must still see the definite message.
		m, err := p.Recv()
		if err != nil {
			return err
		}
		got.Store(int64(m.Payload.(int)))
		return nil
	})
	spawn(t, rt, "producer", func(p *Proc) error {
		return p.Send("consumer", 7) // definite send
	})
	spawn(t, rt, "verifier", func(p *Proc) error {
		return p.Deny(<-aidCh)
	})
	waitClean(t, rt)
	if got.Load() != 7 {
		t.Fatalf("redelivered value = %d, want 7", got.Load())
	}
}

// --- figure 2 end-to-end ------------------------------------------------------

// figure2 runs the paper's Call Streaming example on the engine with an
// optional artificial latency, returning the printer's final line count
// and the worker's newpage count.
func figure2(t *testing.T, total int, latency time.Duration) (lineno, newpage int, out string) {
	t.Helper()
	var lat LatencyFunc
	if latency > 0 {
		lat = func(from, to string) time.Duration { return latency }
	}
	rt, buf := newRT(t, WithLatency(lat))
	const pageSize = 50
	var lineCount, newpages atomic.Int64

	// Receivers first: see TestManyProcessesStress.
	spawn(t, rt, "printer", func(p *Proc) error {
		lines := 0
		for i := 0; i < 2; i++ {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			s := m.Payload.(string)
			if strings.HasPrefix(s, "Total is ") {
				// Printing the total advances to line `total`.
				var v int
				fmt.Sscanf(s, "Total is %d", &v)
				lines = v
			} else {
				lines++
			}
			p.Printf("print: %s\n", s)
			if m.From == "worrywart" {
				if err := p.Send("worrywart", lines); err != nil {
					return err
				}
			}
		}
		p.Effect(func() { lineCount.Store(int64(lines)) }, nil)
		return nil
	})
	spawn(t, rt, "worrywart", func(p *Proc) error {
		m, err := p.Recv()
		if err != nil {
			return err
		}
		aids := m.Payload.([2]AID)
		partPage, order := aids[0], aids[1]
		m, err = p.Recv()
		if err != nil {
			return err
		}
		totalv := m.Payload.(int)
		if err := p.Send("printer", fmt.Sprintf("Total is %d", totalv)); err != nil {
			return err
		}
		reply, err := p.Recv() // line number after printing
		if err != nil {
			return err
		}
		if err := p.FreeOf(order); err != nil {
			return err
		}
		if err := p.Send("worker", "done"); err != nil {
			return err
		}
		if reply.Payload.(int) < pageSize {
			return p.Affirm(partPage)
		}
		return p.Deny(partPage)
	})

	spawn(t, rt, "worker", func(p *Proc) error {
		partPage := p.NewAID()
		order := p.NewAID()
		if err := p.Send("worrywart", [2]AID{partPage, order}); err != nil {
			return err
		}
		if err := p.Send("worrywart", total); err != nil {
			return err
		}
		if !p.Guess(partPage) {
			p.Effect(func() { newpages.Add(1) }, nil)
		}
		if p.Guess(order) {
			return p.Send("printer", "Summary...")
		}
		// Pessimistic: wait until S1 is known complete.
		if _, err := p.Recv(); err != nil {
			return err
		}
		return p.Send("printer", "Summary...")
	})

	waitClean(t, rt)
	return int(lineCount.Load()), int(newpages.Load()), buf.String()
}

func TestFigure2PartialPage(t *testing.T) {
	lineno, newpage, _ := figure2(t, 30, 0)
	if lineno != 31 || newpage != 0 {
		t.Fatalf("lineno=%d newpage=%d, want 31/0", lineno, newpage)
	}
}

func TestFigure2FullPage(t *testing.T) {
	lineno, newpage, _ := figure2(t, 60, 0)
	if lineno != 61 || newpage != 1 {
		t.Fatalf("lineno=%d newpage=%d, want 61/1", lineno, newpage)
	}
}

func TestFigure2WithLatency(t *testing.T) {
	lineno, newpage, _ := figure2(t, 30, 2*time.Millisecond)
	if lineno != 31 || newpage != 0 {
		t.Fatalf("lineno=%d newpage=%d, want 31/0", lineno, newpage)
	}
}

// --- speculative resolution chains -------------------------------------------

func TestSpeculativeAffirmChain(t *testing.T) {
	for _, deny := range []bool{false, true} {
		name := map[bool]string{false: "affirm", true: "deny"}[deny]
		t.Run(name, func(t *testing.T) {
			rt, _ := newRT(t)
			xCh := make(chan AID, 1)
			yCh := make(chan AID, 1)
			var a atomic.Int64

			spawn(t, rt, "p1", func(p *Proc) error {
				x := p.NewAID()
				select {
				case xCh <- x:
				default:
				}
				if p.Guess(x) {
					a.Store(1)
				} else {
					a.Store(2)
				}
				return nil
			})
			spawn(t, rt, "p2", func(p *Proc) error {
				y := p.NewAID()
				select {
				case yCh <- y:
				default:
				}
				x := <-xCh
				select {
				case xCh <- x: // put back for reuse on replay
				default:
				}
				if p.Guess(y) {
					return p.Affirm(x)
				}
				return p.Deny(x)
			})
			spawn(t, rt, "p3", func(p *Proc) error {
				y := <-yCh
				if deny {
					return p.Deny(y)
				}
				return p.Affirm(y)
			})
			waitClean(t, rt)
			want := int64(1)
			if deny {
				want = 2
			}
			if a.Load() != want {
				t.Fatalf("a = %d, want %d", a.Load(), want)
			}
		})
	}
}

// --- shutdown and misuse -------------------------------------------------------

func TestShutdownUnblocksRecv(t *testing.T) {
	rt, _ := newRT(t)
	got := make(chan error, 1)
	spawn(t, rt, "blocked", func(p *Proc) error {
		_, err := p.Recv()
		got <- err
		return nil
	})
	time.Sleep(10 * time.Millisecond)
	rt.Shutdown()
	select {
	case err := <-got:
		if !errors.Is(err, ErrShutdown) {
			t.Fatalf("Recv error = %v, want ErrShutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock")
	}
}

func TestConflictSurfacesToCaller(t *testing.T) {
	rt, _ := newRT(t)
	errCh := make(chan error, 1)
	spawn(t, rt, "p", func(p *Proc) error {
		x := p.NewAID()
		if err := p.Affirm(x); err != nil {
			return err
		}
		errCh <- p.Deny(x)
		return nil
	})
	waitClean(t, rt)
	if err := <-errCh; !errors.Is(err, ErrConflict) {
		t.Fatalf("deny after affirm = %v, want ErrConflict", err)
	}
}

func TestDuplicateSpawnRejected(t *testing.T) {
	rt, _ := newRT(t)
	spawn(t, rt, "p", func(p *Proc) error { return nil })
	if err := rt.Spawn("p", func(p *Proc) error { return nil }); !errors.Is(err, ErrDuplicateProc) {
		t.Fatalf("duplicate spawn = %v, want ErrDuplicateProc", err)
	}
}

func TestSendUnknownDestFails(t *testing.T) {
	rt, _ := newRT(t)
	spawn(t, rt, "p", func(p *Proc) error {
		return p.Send("nobody", 1)
	})
	errs := rt.Wait()
	if len(errs) != 1 || !errors.Is(errs[0], ErrUnknownDest) {
		t.Fatalf("errs = %v, want unknown destination", errs)
	}
}

// Wait reports errors sorted by process name, so a failure reads the
// same from run to run instead of following map iteration order.
func TestWaitErrorOrderIsStable(t *testing.T) {
	for run := 0; run < 50; run++ {
		rt, _ := newRT(t)
		for _, name := range []string{"zed", "alpha", "mid"} {
			spawn(t, rt, name, func(p *Proc) error {
				if p.Name() == "mid" {
					return nil
				}
				return p.Send("nobody", 1)
			})
		}
		errs := rt.Wait()
		if len(errs) != 2 ||
			!strings.HasPrefix(errs[0].Error(), "alpha: ") || !strings.HasPrefix(errs[1].Error(), "zed: ") {
			t.Fatalf("run %d: errs = %v, want alpha's then zed's", run, errs)
		}
	}
}

func TestQuiesceOnSpeculativePark(t *testing.T) {
	// A process that halts speculatively parks; Quiesce must return.
	rt, _ := newRT(t)
	spawn(t, rt, "p", func(p *Proc) error {
		x := p.NewAID()
		p.Guess(x) // never resolved
		return nil
	})
	done := make(chan struct{})
	go func() { rt.Quiesce(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Quiesce did not return for parked speculative process")
	}
}

func TestRandStableAcrossReplay(t *testing.T) {
	rt, _ := newRT(t)
	aidCh := make(chan AID, 1)
	var vals [2]int64
	var runs atomic.Int32

	spawn(t, rt, "p", func(p *Proc) error {
		x := p.NewAID()
		v := p.Rand() // drawn before the guess: must replay identically
		idx := runs.Add(1) - 1
		if int(idx) < len(vals) {
			vals[idx] = v
		}
		// Publish only once the guess stands: a verifier that denied
		// first would make Guess return false with nothing to roll back.
		if p.Guess(x) {
			aidCh <- x
		}
		return nil
	})
	spawn(t, rt, "verifier", func(p *Proc) error {
		return p.Deny(<-aidCh)
	})
	waitClean(t, rt)
	if runs.Load() != 2 {
		t.Fatalf("runs = %d, want 2 (original + replay)", runs.Load())
	}
	if vals[0] != vals[1] {
		t.Fatalf("Rand not stable across replay: %d != %d", vals[0], vals[1])
	}
}

func TestDeterministicReplayViolationDetected(t *testing.T) {
	rt, _ := newRT(t)
	aidCh := make(chan AID, 1)
	var first atomic.Bool
	first.Store(true)

	// Receiver first: see TestManyProcessesStress.
	spawn(t, rt, "p2", func(p *Proc) error {
		_, err := p.Recv()
		if errors.Is(err, ErrShutdown) {
			return nil
		}
		return err
	})
	spawn(t, rt, "p", func(p *Proc) error {
		x := p.NewAID()
		if first.CompareAndSwap(true, false) {
			p.Rand() // present in original run…
		}
		// …absent under replay: the next op's log entry mismatches.
		// Published only once the guess stands, so the deny always
		// finds a speculation to roll back.
		if p.Guess(x) {
			aidCh <- x
		}
		_ = p.Send("p2", 1)
		return nil
	})
	spawn(t, rt, "verifier", func(p *Proc) error {
		return p.Deny(<-aidCh)
	})
	// The diverged process never re-sends, so p2 blocks forever; release
	// it once the system is otherwise stable.
	go func() {
		rt.Quiesce()
		rt.Shutdown()
	}()
	errs := rt.Wait()
	found := false
	for _, err := range errs {
		if errors.Is(err, ErrNondeterministic) {
			found = true
		}
	}
	if !found {
		t.Fatalf("errs = %v, want ErrNondeterministic", errs)
	}
}

// --- stress -------------------------------------------------------------------

func TestManyProcessesStress(t *testing.T) {
	// 16 guesser/resolver pairs churning through 50 assumptions each,
	// with a 50% deny rate, under the race detector.
	rt, _ := newRT(t)
	const pairs = 16
	const rounds = 50
	var denials atomic.Int64

	for i := 0; i < pairs; i++ {
		i := i
		gname := fmt.Sprintf("guess-%d", i)
		rname := fmt.Sprintf("resolve-%d", i)
		// Receiver first: a send to a name not yet spawned fails with
		// ErrUnknownDest (ROADMAP item 1(c)), which is not what this test is
		// about.
		spawn(t, rt, rname, func(p *Proc) error {
			for r := 0; r < rounds; r++ {
				m, err := p.Recv()
				if err != nil {
					return err
				}
				x := m.Payload.(AID)
				if r%2 == 0 {
					if err := p.Affirm(x); err != nil {
						return err
					}
				} else {
					if err := p.Deny(x); err != nil {
						return err
					}
				}
			}
			return nil
		})
		spawn(t, rt, gname, func(p *Proc) error {
			for r := 0; r < rounds; r++ {
				x := p.NewAID()
				if err := p.Send(rname, x); err != nil {
					return err
				}
				if !p.Guess(x) {
					p.Effect(func() { denials.Add(1) }, nil)
				}
			}
			return nil
		})
	}
	waitClean(t, rt)
	if got := denials.Load(); got != pairs*rounds/2 {
		t.Fatalf("denials observed = %d, want %d", got, pairs*rounds/2)
	}
}

func TestRecvSettledWaitsForCommitment(t *testing.T) {
	// The pessimistic receiver must not see the speculative message until
	// its assumption is affirmed, and must never see a denied one.
	for _, deny := range []bool{false, true} {
		name := map[bool]string{false: "affirm", true: "deny"}[deny]
		t.Run(name, func(t *testing.T) {
			rt, _ := newRT(t)
			aidCh := make(chan AID, 1)
			var got atomic.Int64

			// Receiver first: see TestManyProcessesStress.
			spawn(t, rt, "sink", func(p *Proc) error {
				m, err := p.RecvSettled()
				if err != nil {
					return err
				}
				got.Store(int64(m.Payload.(int)))
				if !p.Definite() {
					return errors.New("pessimistic receiver became speculative")
				}
				return nil
			})
			spawn(t, rt, "sender", func(p *Proc) error {
				x := p.NewAID()
				select {
				case aidCh <- x:
				default:
				}
				if p.Guess(x) {
					return p.Send("sink", 10)
				}
				return p.Send("sink", 5)
			})
			spawn(t, rt, "verifier", func(p *Proc) error {
				x := <-aidCh
				if deny {
					return p.Deny(x)
				}
				return p.Affirm(x)
			})
			waitClean(t, rt)
			want := int64(10)
			if deny {
				want = 5
			}
			if got.Load() != want {
				t.Fatalf("got %d, want %d", got.Load(), want)
			}
		})
	}
}

func TestRecvSettledDeliversDefiniteImmediately(t *testing.T) {
	rt, _ := newRT(t)
	var got atomic.Int64
	spawn(t, rt, "sink", func(p *Proc) error {
		m, err := p.RecvSettled()
		if err != nil {
			return err
		}
		got.Store(int64(m.Payload.(int)))
		return nil
	})
	spawn(t, rt, "sender", func(p *Proc) error {
		return p.Send("sink", 7) // definite: no tags
	})
	waitClean(t, rt)
	if got.Load() != 7 {
		t.Fatalf("got %d, want 7", got.Load())
	}
}

func TestRecvSettledOrdersBehindSpeculation(t *testing.T) {
	// A settled message behind a speculative one in the queue is
	// delivered first by RecvSettled (it skips, not blocks); once the
	// skipped head settles it is the oldest deliverable again and goes
	// ahead of a younger settled message.
	rt, _ := newRT(t)
	aidCh := make(chan AID, 1)
	step := make(chan struct{}, 1)
	var got []int

	// Receiver first: see TestManyProcessesStress.
	spawn(t, rt, "sink", func(p *Proc) error {
		recv := func() error {
			m, err := p.RecvSettled()
			if err == nil {
				got = append(got, m.Payload.(int))
			}
			return err
		}
		if err := recv(); err != nil {
			return err
		}
		// Unblock everything: resolve the speculation.
		if err := p.Affirm(<-aidCh); err != nil {
			return err
		}
		if err := recv(); err != nil {
			return err
		}
		return recv()
	})
	spawn(t, rt, "spec", func(p *Proc) error {
		x := p.NewAID()
		select {
		case aidCh <- x:
		default:
		}
		if p.Guess(x) {
			if err := p.Send("sink", 100); err != nil { // speculative, never resolved here
				return err
			}
		}
		select {
		case step <- struct{}{}:
		default:
		}
		return nil
	})
	spawn(t, rt, "def", func(p *Proc) error {
		<-step // ensure the speculative message is queued first
		if err := p.Send("sink", 7); err != nil {
			return err
		}
		return p.Send("sink", 8)
	})
	waitClean(t, rt)
	if fmt.Sprint(got) != "[7 100 8]" {
		t.Fatalf("settled deliveries = %v, want [7 100 8]: the definite 7 past the speculative head, then the head once affirmed, then 8", got)
	}
}

package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hope/internal/ids"
	"hope/internal/obs"
	"hope/internal/policy"
)

// Admission-controller integration: pessimistic guesses, wait budgets,
// replay safety, and the verdict-sink chain. The policy package's own
// tests cover the estimator and state machine; these cover the engine's
// side of the contract — every admission decision is a replay-log entry.
// Tests that read counts attach an observer: the runtime builds none.

// alwaysOff builds an AlwaysOff controller with the given wait budget.
func alwaysOff(budget time.Duration) *policy.Controller {
	return policy.AlwaysOff(policy.Config{WaitBudget: budget})
}

func TestPessimisticGuessReturnsRealVerdict(t *testing.T) {
	for _, affirm := range []bool{true, false} {
		name := map[bool]string{true: "affirm", false: "deny"}[affirm]
		t.Run(name, func(t *testing.T) {
			rt, buf := newRT(t, WithObserver(obs.New()), WithSpeculation(alwaysOff(5*time.Second)))
			aidCh := make(chan AID, 1)

			spawn(t, rt, "worker", func(p *Proc) error {
				x := p.NewAID()
				select {
				case aidCh <- x:
				default:
				}
				if p.Guess(x) {
					p.Printf("opt\n")
				} else {
					p.Printf("pess\n")
				}
				return nil
			})
			spawn(t, rt, "judge", func(p *Proc) error {
				x := <-aidCh
				if affirm {
					return p.Affirm(x)
				}
				return p.Deny(x)
			})
			waitClean(t, rt)
			want := map[bool]string{true: "opt\n", false: "pess\n"}[affirm]
			if buf.String() != want {
				t.Fatalf("output = %q, want %q", buf.String(), want)
			}
			// The wait returned the real verdict: no interval opened, no
			// rollback happened — even on the deny path.
			m := rt.Observer().Snapshot().Metrics
			if m.Rollbacks != 0 {
				t.Fatalf("rollbacks = %d, want 0 (pessimistic deny is not a rollback)", m.Rollbacks)
			}
			if m.PolicyDenies == 0 {
				t.Fatal("no admission denials recorded")
			}
		})
	}
}

func TestPessimisticWaitBudgetFallsBackToSpeculation(t *testing.T) {
	rt, buf := newRT(t, WithObserver(obs.New()), WithSpeculation(alwaysOff(time.Millisecond)))

	spawn(t, rt, "worker", func(p *Proc) error {
		x := p.NewAID()
		// Nobody resolves x during the wait: the budget expires and the
		// guess speculates, exactly as always-on would.
		if p.Guess(x) {
			p.Printf("speculated\n")
			return p.Affirm(x)
		}
		p.Printf("pess\n")
		return nil
	})
	waitClean(t, rt)
	if buf.String() != "speculated\n" {
		t.Fatalf("output = %q, want speculated", buf.String())
	}
	m := rt.Observer().Snapshot().Metrics
	if m.PolicyWaitTimeouts == 0 {
		t.Fatal("no wait timeout recorded")
	}
	stats := rt.Observer().SiteStats()
	if len(stats) != 1 || stats[0].WaitTimeouts == 0 {
		t.Fatalf("site stats = %+v, want one site with a wait timeout", stats)
	}
	// The speculated-then-affirmed guess credits the site estimator.
	if stats[0].Affirms != 1 {
		t.Fatalf("site affirms = %d, want 1", stats[0].Affirms)
	}
}

func TestPessimisticEntryReplaysWithoutController(t *testing.T) {
	// A pessimistic verdict logged before a rollback target must replay
	// from the log — the controller is never consulted again, and the
	// committed output is identical to what always-on would produce.
	rt, buf := newRT(t, WithObserver(obs.New()), WithSpeculation(alwaysOff(200*time.Millisecond)))
	aidCh := make(chan AID, 1)
	specCh := make(chan struct{}, 1)
	denyCh := make(chan AID, 1)

	spawn(t, rt, "worker", func(p *Proc) error {
		x := p.NewAID()
		y := p.NewAID()
		select {
		case aidCh <- x:
		default:
		}
		// Guess(x): the judge affirms promptly, so the pessimistic wait
		// returns true inside its budget. Logged as a guess entry.
		if !p.Guess(x) {
			p.Printf("x-pess\n")
			return nil
		}
		p.Printf("x-opt\n")
		// Guess(y): nobody resolves y within the 1ms probe of its own —
		// the shared budget is consumed waiting, then the guess
		// speculates. The judge then denies y, rolling us back to here;
		// replay re-consumes the x entry above and this returns false.
		ok := p.Guess(y)
		if ok {
			select {
			case denyCh <- y:
			default:
			}
			select {
			case specCh <- struct{}{}:
			default:
			}
			// Park here until the deny lands; the rollback interrupts us.
			_, err := p.Recv()
			return err
		}
		p.Printf("y-pess\n")
		return nil
	})
	spawn(t, rt, "judge", func(p *Proc) error {
		if err := p.Affirm(<-aidCh); err != nil {
			return err
		}
		<-specCh
		return p.Deny(<-denyCh)
	})
	waitClean(t, rt)
	out := buf.String()
	if out != "x-opt\ny-pess\n" {
		t.Fatalf("output = %q, want x-opt then y-pess", out)
	}
	// The x site was consulted live exactly once: its replayed entry
	// never touched the admission layer again.
	for _, s := range rt.Observer().SiteStats() {
		if s.Guesses > 1 {
			t.Fatalf("site %s consulted %d times live, want at most 1 (replay must not re-admit)", s.Key, s.Guesses)
		}
	}
}

func TestVerdictSinkChainsBehindController(t *testing.T) {
	// With a controller armed the engine owns the tracker's verdict sink;
	// a wire-layer SetVerdictSink consumer must still see every verdict.
	rt, _ := newRT(t, WithSpeculation(alwaysOff(time.Second)))
	var mu sync.Mutex
	got := make(map[ids.AID]bool)
	rt.SetVerdictSink(func(x ids.AID, affirmed bool) {
		mu.Lock()
		got[x] = affirmed
		mu.Unlock()
	})
	aidCh := make(chan AID, 2)

	spawn(t, rt, "worker", func(p *Proc) error {
		x := p.NewAID()
		y := p.NewAID()
		aidCh <- x
		aidCh <- y
		if err := p.Affirm(x); err != nil {
			return err
		}
		return p.Deny(y)
	})
	waitClean(t, rt)
	x, y := <-aidCh, <-aidCh
	mu.Lock()
	defer mu.Unlock()
	if v, ok := got[x.id]; !ok || !v {
		t.Fatalf("sink missed affirm of %v (got %v)", x, got)
	}
	if v, ok := got[y.id]; !ok || v {
		t.Fatalf("sink missed deny of %v (got %v)", y, got)
	}
}

func TestAdaptiveControllerThrottlesInaccurateSite(t *testing.T) {
	// A site that is always wrong must leave the "on" state, after which
	// denied admissions resolve pessimistically — no further rollbacks.
	ctl := policy.NewAdaptive(policy.Config{
		Window:     8,
		MinSamples: 2,
		WaitBudget: 5 * time.Second,
	})
	rt, buf := newRT(t, WithObserver(obs.New()), WithSpeculation(ctl))
	const rounds = 8

	// AIDs travel as engine messages: sends are replay-logged and
	// rollback-discarded copies orphan at the judge, so each assumption
	// is delivered exactly once no matter how many times the worker
	// replays — a raw Go channel would leak duplicates across rollbacks.
	// (Receiver first: see TestManyProcessesStress.)
	spawn(t, rt, "judge", func(p *Proc) error {
		for i := 0; i < rounds; i++ {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			if err := p.Deny(m.Payload.(AID)); err != nil {
				return err
			}
		}
		return nil
	})
	spawn(t, rt, "worker", func(p *Proc) error {
		for i := 0; i < rounds; i++ {
			x := p.NewAID()
			if err := p.Send("judge", x); err != nil {
				return err
			}
			if p.Guess(x) {
				p.Printf("opt %d\n", i)
			} else {
				p.Printf("pess %d\n", i)
			}
		}
		return nil
	})
	waitClean(t, rt)
	// Every assumption is denied, so the committed history is uniformly
	// pessimistic — speculative "opt" lines all rolled back.
	var want strings.Builder
	for i := 0; i < rounds; i++ {
		fmt.Fprintf(&want, "pess %d\n", i)
	}
	if buf.String() != want.String() {
		t.Fatalf("output = %q, want %q", buf.String(), want.String())
	}
	stats := rt.Observer().SiteStats()
	if len(stats) == 0 {
		t.Fatal("no site stats recorded")
	}
	s := stats[0]
	if s.State == policy.StateOn.String() {
		t.Fatalf("site still on after %d straight refutes: %+v", rounds, s)
	}
	if s.Denied == 0 {
		t.Fatalf("no admissions denied: %+v", s)
	}
	if m := rt.Observer().Snapshot().Metrics; m.PolicyDenies == 0 {
		t.Fatal("policy-deny counter still zero")
	}
}

func TestNilControllerPreservesAlwaysOnPath(t *testing.T) {
	// Sanity: a runtime without WithSpeculation records no site stats and
	// opens intervals exactly as before.
	rt, buf := newRT(t)
	spawn(t, rt, "worker", func(p *Proc) error {
		x := p.NewAID()
		if p.Guess(x) {
			p.Printf("opt\n")
			return p.Affirm(x)
		}
		p.Printf("pess\n")
		return nil
	})
	waitClean(t, rt)
	if !strings.Contains(buf.String(), "opt") {
		t.Fatalf("output = %q", buf.String())
	}
	if rt.Observer() != nil && len(rt.Observer().SiteStats()) != 0 {
		t.Fatal("site stats recorded without a controller")
	}
}

func TestAdmissionLearnsWithoutObserver(t *testing.T) {
	// The estimator learns from the engine, not from obs: with no
	// observer attached, a site whose every assumption is denied still
	// throttles and then switches off, after which its guesses wait for
	// their verdicts instead of speculating — the worker's rollbacks stop
	// growing. ProbeEvery is out of reach so an off site never probes.
	ctl := policy.NewAdaptive(policy.Config{
		Window:     8,
		MinSamples: 2,
		ProbeEvery: 1 << 30,
		WaitBudget: 5 * time.Second,
	})
	rt, buf := newRT(t, WithSpeculation(ctl))
	const rounds = 16

	// rollbacksBefore[i] is the worker's rollback count when the judge
	// denies round i: the rollbacks rounds 0..i-1 caused.
	var (
		worker          atomic.Pointer[Proc]
		rollbacksBefore [rounds]int
	)
	spawn(t, rt, "judge", func(p *Proc) error {
		for i := 0; i < rounds; i++ {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			w := worker.Load() // stored before the worker's first send
			rollbacksBefore[i] = w.Restarts() + w.Resumes()
			if err := p.Deny(m.Payload.(AID)); err != nil {
				return err
			}
		}
		return nil
	})
	spawn(t, rt, "worker", func(p *Proc) error {
		worker.Store(p)
		for i := 0; i < rounds; i++ {
			x := p.NewAID()
			if err := p.Send("judge", x); err != nil {
				return err
			}
			if p.Guess(x) {
				p.Printf("opt %d\n", i)
			} else {
				p.Printf("pess %d\n", i)
			}
		}
		return nil
	})
	waitClean(t, rt)
	var want strings.Builder
	for i := 0; i < rounds; i++ {
		fmt.Fprintf(&want, "pess %d\n", i)
	}
	if buf.String() != want.String() {
		t.Fatalf("output = %q, want %q", buf.String(), want.String())
	}
	if o := rt.Observer(); o != nil {
		t.Fatalf("Observer() = %p with none attached, want nil", o)
	}
	w := worker.Load()
	total := w.Restarts() + w.Resumes()
	if total == 0 || total >= rounds/2 {
		t.Fatalf("worker rolled back %d times in %d denied rounds, want between 1 and %d", total, rounds, rounds/2-1)
	}
	if mid := rollbacksBefore[rounds/2]; mid != total {
		t.Fatalf("rollbacks grew from %d before round %d to %d: the site kept speculating", mid, rounds/2, total)
	}
}

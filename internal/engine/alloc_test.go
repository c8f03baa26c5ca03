package engine

import (
	"fmt"
	"io"
	"runtime"
	"testing"
)

// TestEngineJobAllocBudget prices one in-process storm job end to end: a
// worker mints X, sends the claim, guesses X, sends a tagged result,
// attaches an effect and receives the ack; the judge receives the claim,
// affirms X and acks; the sink takes the result with RecvSettled and
// attaches an effect. The payloads and effects allocate nothing, so what
// is counted is the runtime's own: X's record, the interval, its IDO and
// X's DOM, about four. The three messages allocate nothing: each is
// carried by value and kept in its receiver's message store. A message
// boxed on the heap again puts three more on every job; a wake effect
// attached per interval, a tag copied per send or a commit list
// allocated per interval each put one more.
//
// The bytes are budgeted too. The three bodies never compact, so their
// replay logs and message stores grow for the whole run: six entries a
// job for the worker, three for the judge and two for the sink, and one
// message each. A log or store that doubles and copies itself as it
// grows fails here.
func TestEngineJobAllocBudget(t *testing.T) {
	const warm, jobs, budget, byteBudget = 200, 2000, 4.5, 1600.0
	rt := New(WithOutput(io.Discard))
	t.Cleanup(rt.Shutdown)
	var committed, collected int
	commit, collect := func() { committed++ }, func() { collected++ }
	// A claim points at its slot: an AID boxed by value would allocate.
	claims := make([]AID, warm+jobs)
	// Nothing is denied, so nothing replays: the channels are safe.
	warmed, measured, resume := make(chan struct{}), make(chan struct{}), make(chan struct{})
	spawn(t, rt, "sink", func(p *Proc) error {
		for i := 0; i < warm+jobs; i++ {
			if _, err := p.RecvSettled(); err != nil {
				return err
			}
			p.Effect(collect, nil)
		}
		return nil
	})
	spawn(t, rt, "judge", func(p *Proc) error {
		for i := 0; i < warm+jobs; i++ {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			if err := p.Affirm(*m.Payload.(*AID)); err != nil {
				return err
			}
			if err := p.Send("worker", "ack"); err != nil {
				return err
			}
		}
		return nil
	})
	spawn(t, rt, "worker", func(p *Proc) error {
		for i := 0; i < warm+jobs; i++ {
			if i == warm {
				close(warmed)
				<-resume
			}
			x := p.NewAID()
			claims[i] = x
			if err := p.Send("judge", &claims[i]); err != nil {
				return err
			}
			if !p.Guess(x) {
				return fmt.Errorf("job %d: X was denied", i)
			}
			if err := p.Send("sink", "result"); err != nil {
				return err
			}
			p.Effect(commit, nil)
			if _, err := p.Recv(); err != nil {
				return err
			}
		}
		close(measured)
		return nil
	})
	var before, after runtime.MemStats
	<-warmed
	runtime.ReadMemStats(&before)
	close(resume)
	<-measured
	runtime.ReadMemStats(&after)
	waitClean(t, rt)
	if committed != warm+jobs || collected != warm+jobs {
		t.Fatalf("%d worker and %d sink effects committed, want %d each", committed, collected, warm+jobs)
	}
	perJob := float64(after.Mallocs-before.Mallocs) / jobs
	bytesPerJob := float64(after.TotalAlloc-before.TotalAlloc) / jobs
	t.Logf("%.2f allocations, %.0f bytes per job", perJob, bytesPerJob)
	if raceEnabled {
		return
	}
	if perJob > budget {
		t.Fatalf("%.2f allocations per job, budget %.1f: is a message, a wake effect, a tag copy or a commit list back on the heap?", perJob, budget)
	}
	if bytesPerJob > byteBudget {
		t.Fatalf("%.0f bytes per job, budget %.0f: is the replay log or its message store copying itself as it grows?", bytesPerJob, byteBudget)
	}
}

package scenario

import (
	"fmt"
	"io"
	"sort"
	"time"

	"hope/internal/engine"
)

// stormClaim asks the judge to rule on one job's assumption.
type stormClaim struct {
	W, J int
	X    engine.AID
}

// stormRetry is the delivery policy every Storm send uses: generous
// enough that no realistic drop rate exhausts it.
var stormRetry = engine.RetryPolicy{Attempts: 64, Backoff: 50 * time.Microsecond}

// stormCursor is a worker's loop state: the next job index.
type stormCursor struct{ J int }

// stormWorkers is the storm's fixed worker count; the judge denies job
// (w, j) exactly when (w+j)%4 == 0, so each job index j costs exactly
// one of the four workers a rollback.
const stormWorkers = 4

// spawnStormWorker spawns worker w running `jobs` jobs. Workers are
// Loop processes — one job per step over an explicit cursor — so their
// replay logs compact at settled job boundaries and, under
// WithCheckpointEvery, crash recovery mid-job restores from a
// checkpoint instead of replaying the job from its start.
func spawnStormWorker(rt *engine.Runtime, w, jobs int) error {
	name := fmt.Sprintf("worker%d", w)
	return engine.Loop(rt, name,
		func() *stormCursor { return &stormCursor{} },
		func(s *stormCursor) *stormCursor { c := *s; return &c },
		func(p *engine.Proc, s *stormCursor) error {
			if s.J >= jobs {
				return engine.ErrStopLoop
			}
			j := s.J
			x := p.NewAID()
			// Sent while definite: the judge never inherits
			// speculation from a claim.
			if err := p.SendRetry("judge", stormClaim{W: w, J: j, X: x}, stormRetry); err != nil {
				return err
			}
			val := w*100 + j
			if !p.Guess(x) {
				val = -val // pessimistic path after the deny
			}
			if err := p.SendRetry("sink", fmt.Sprintf("w%d j%03d v%+d", w, j, val), stormRetry); err != nil {
				return err
			}
			// The ack closes the job's speculation window: by the
			// time it is consumed on a settled path, x is resolved
			// and the worker is definite again.
			if _, err := p.Recv(); err != nil {
				return err
			}
			s.J++
			return nil
		})
}

// spawnStormJudge spawns the judge: it rules on `total` claims by
// content — job (w, j) is denied exactly when (w+j)%4 == 0 — and acks
// each one.
func spawnStormJudge(rt *engine.Runtime, total int) error {
	return rt.Spawn("judge", func(p *engine.Proc) error {
		for i := 0; i < total; i++ {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			c := m.Payload.(stormClaim)
			if (c.W+c.J)%4 == 0 {
				err = p.Deny(c.X)
			} else {
				err = p.Affirm(c.X)
			}
			if err != nil {
				return err
			}
			if err := p.SendRetry(fmt.Sprintf("worker%d", c.W), "ack", stormRetry); err != nil {
				return err
			}
		}
		return nil
	})
}

// spawnStormSink spawns the pessimistic sink: it collects the `total`
// settled per-job results and prints them sorted — the storm's entire
// committed output, and therefore the oracle's comparison surface.
func spawnStormSink(rt *engine.Runtime, total int) error {
	return rt.Spawn("sink", func(p *engine.Proc) error {
		results := make([]string, 0, total)
		for i := 0; i < total; i++ {
			m, err := p.RecvSettled()
			if err != nil {
				return err
			}
			results = append(results, m.Payload.(string))
		}
		sort.Strings(results)
		for _, r := range results {
			p.Printf("%s\n", r)
		}
		return nil
	})
}

// Storm is the fault-injection oracle workload: W workers each run
// `scale` jobs, speculating on a per-job assumption that a judge resolves
// by content — job (w, j) is denied exactly when (w+j)%4 == 0 — while a
// pessimistic sink collects the settled per-job results and prints them
// sorted. The committed output is therefore a pure function of the
// workload shape: every line, under any interleaving, any latency model,
// and any fault plan. Running Storm under an aggressive plan and
// comparing its output byte-for-byte against the fault-free run is the
// paper's Theorems 5.1–6.3 as an executable check — crashes, drops,
// duplicates, delays, and stalls may stretch the run but must never
// change what commits.
//
// Each job closes its speculation window before the next opens (the
// worker waits for the judge's ack), so claims and acks are always sent
// definite and the judge and sink never speculate; only the per-job
// result message rides on the assumption.
//
// The same processes distribute across OS processes: see StormNode and
// StormWire in cluster.go, whose committed output must byte-match this
// single-runtime form.
func Storm(jobs int, opts ...engine.Option) (Result, error) {
	if jobs <= 0 {
		jobs = 24
	}
	total := stormWorkers * jobs

	rt := engine.New(append([]engine.Option{engine.WithOutput(io.Discard)}, opts...)...)
	defer rt.Shutdown()

	denies := jobs // per j, exactly one of the 4 workers has (w+j)%4 == 0
	start := time.Now()
	// Workers first: their claims and results wait in the judge's and
	// the sink's mailboxes until those are spawned.
	for w := 0; w < stormWorkers; w++ {
		if err := spawnStormWorker(rt, w, jobs); err != nil {
			return Result{}, err
		}
	}
	if err := spawnStormJudge(rt, total); err != nil {
		return Result{}, err
	}
	if err := spawnStormSink(rt, total); err != nil {
		return Result{}, err
	}

	elapsed, err := Settle(rt, start)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Elapsed: elapsed,
		Note:    fmt.Sprintf("%d jobs settled (%d denied)", total, denies),
	}, nil
}

// Package recovery expresses optimistic message-logging recovery
// [Strom & Yemini 1985, 24] in HOPE primitives, substantiating the
// paper's claim that "HOPE subsumes these systems, because HOPE allows
// any optimistic assumption to be made, rather than the single
// non-failure assumption" (§2).
//
// Each worker divides its execution into epochs. At the start of an epoch
// it ships a checkpoint to stable storage asynchronously and guesses the
// epoch assumption — "this state will reach stable storage before I
// fail". Computation proceeds speculatively; messages carry the epoch
// assumption in their tags, so consumers become causal dependents exactly
// as the recovery literature's dependency vectors prescribe. A crash is a
// definite self-deny of the epoch assumption (the process dies before
// its checkpoint is durable): HOPE rolls the worker back to its last
// checkpointed state and eliminates every orphan computation downstream —
// Strom-Yemini recovery with no recovery-specific code. Stable storage
// affirms the assumption when the checkpoint arrives; because a
// checkpoint request carries the previous epoch's still-unresolved
// assumption in its tags, an epoch only commits after all of its
// predecessors — the commit-order invariant the protocol requires.
//
// The pessimistic baseline checkpoints synchronously: each epoch waits a
// full round trip to stable storage before computing.
//
// Stable storage and the crash controller consume through RecvSettled
// (see their comments): resolution then proceeds in epoch order, which
// keeps it cycle-free (DESIGN.md finding 4) and realizes the
// commit-order invariant of the recovery literature directly.
package recovery

import (
	"errors"
	"fmt"
	"sync"

	"hope/internal/engine"
	"hope/internal/trace"
)

// ckptReq asks stable storage to persist a worker's epoch state.
type ckptReq struct {
	Worker     int
	Epoch      int
	Assumption engine.AID
	Sync       bool // baseline mode: reply with an ack instead of affirming
	ReplyTo    string
}

// ckptAck answers a synchronous checkpoint.
type ckptAck struct{ Epoch int }

// ringMsg is the application payload circulating between workers.
type ringMsg struct {
	Round int
	Val   int64
}

// Config parameterizes a ring-of-workers run.
type Config struct {
	// Workers is the ring size (≥ 2).
	Workers int
	// Rounds is how many exchange rounds each worker performs.
	Rounds int
	// CheckpointEvery is the epoch length in rounds (≥ 1).
	CheckpointEvery int
	// Crashes maps worker index → the epoch numbers (1-based) at which
	// the crash controller denies that worker's epoch assumption.
	Crashes map[int][]int
	// Sync selects the pessimistic baseline: synchronous checkpoints,
	// no speculation, crashes ignored (nothing volatile to lose).
	Sync bool
}

func (c Config) normalize() Config {
	if c.Workers < 2 {
		c.Workers = 2
	}
	if c.Rounds < 1 {
		c.Rounds = 1
	}
	if c.CheckpointEvery < 1 {
		c.CheckpointEvery = 1
	}
	return c
}

// Result summarizes a run.
type Result struct {
	// Checksums holds each worker's committed fold over received values.
	Checksums []int64
	// Recoveries counts epochs re-executed after a crash, per worker.
	Recoveries []int
	// Restarts counts engine-level body restarts, per worker.
	Restarts []int
	// Trace records the committed ring sends/receives in commit order;
	// CausalErr is non-nil if the committed history violates causality
	// (it never should — recovery must preserve it).
	Trace     *trace.Recorder
	CausalErr error
}

// Reference computes the crash-free expected checksums analytically.
func Reference(cfg Config) []int64 {
	cfg = cfg.normalize()
	sums := make([]int64, cfg.Workers)
	for i := range sums {
		prev := (i - 1 + cfg.Workers) % cfg.Workers
		var sum int64
		for r := 0; r < cfg.Rounds; r++ {
			sum = fold(sum, ringVal(prev, r))
		}
		sums[i] = sum
	}
	return sums
}

// ringVal is the deterministic value worker w sends in round r.
func ringVal(w, r int) int64 { return int64(w+1)*1_000_003 + int64(r)*7919 }

// fold accumulates received values into a checksum.
func fold(acc, v int64) int64 { return acc*31 + v }

// Run executes the ring workload under opts and returns committed
// checksums plus recovery accounting.
func Run(cfg Config, opts ...engine.Option) (Result, error) {
	cfg = cfg.normalize()
	rt := engine.New(opts...)
	defer rt.Shutdown()

	res := Result{
		Checksums:  make([]int64, cfg.Workers),
		Recoveries: make([]int, cfg.Workers),
		Restarts:   make([]int, cfg.Workers),
		Trace:      trace.NewRecorder(),
	}
	var mu sync.Mutex

	workerName := func(i int) string { return fmt.Sprintf("w%d", i) }

	// Stable storage: affirms asynchronous checkpoints, acks synchronous
	// ones. It consumes through RecvSettled — a checkpoint request
	// becomes visible only when its tags (the previous epoch's
	// assumption) have committed — so every affirm is definite and
	// resolution is well-founded by epoch order. This is both the
	// Strom-Yemini commit-order invariant and the cycle-free discipline
	// of DESIGN.md finding 4.
	if err := rt.Spawn("stable", func(p *engine.Proc) error {
		for {
			m, err := p.RecvSettled()
			if err != nil {
				if errors.Is(err, engine.ErrShutdown) {
					return nil
				}
				return err
			}
			req, ok := m.Payload.(ckptReq)
			if !ok {
				return fmt.Errorf("stable: unexpected %T", m.Payload)
			}
			if req.Sync {
				if err := p.Send(req.ReplyTo, ckptAck{Epoch: req.Epoch}); err != nil {
					return err
				}
				continue
			}
			if err := p.Affirm(req.Assumption); err != nil && !errors.Is(err, engine.ErrConflict) {
				return err
			}
		}
	}); err != nil {
		return res, err
	}

	for i := 0; i < cfg.Workers; i++ {
		i := i
		if err := rt.Spawn(workerName(i), func(p *engine.Proc) error {
			return workerBody(p, cfg, i, workerName, res.Trace, func(sum int64, recoveries int) {
				mu.Lock()
				res.Checksums[i] = sum
				res.Recoveries[i] = recoveries
				res.Restarts[i] = p.Restarts()
				mu.Unlock()
			})
		}); err != nil {
			return res, err
		}
	}
	rt.Quiesce()
	rt.Shutdown()
	for _, err := range rt.Wait() {
		if err != nil {
			return res, err
		}
	}
	// The committed history — and only the committed history — must be
	// causally consistent: recovery may discard speculative events but
	// never commit an effect before its cause.
	res.CausalErr = res.Trace.CheckCausality()
	return res, nil
}

// workerBody runs one ring worker: epochs of CheckpointEvery rounds, each
// protected by an epoch assumption (or a synchronous checkpoint in
// baseline mode).
func workerBody(p *engine.Proc, cfg Config, self int, workerName func(int) string,
	rec *trace.Recorder, report func(sum int64, recoveries int)) error {

	next := workerName((self + 1) % cfg.Workers)
	var sum int64
	recoveries := 0
	epoch := 0
	round := 0

	isRing := func(v any) bool { _, ok := v.(ringMsg); return ok }

	for round < cfg.Rounds {
		epoch++
		epochRounds := cfg.CheckpointEvery
		if rem := cfg.Rounds - round; rem < epochRounds {
			epochRounds = rem
		}

		if cfg.Sync {
			// Pessimistic baseline: wait for the checkpoint ack.
			if err := p.Send("stable", ckptReq{Worker: self, Epoch: epoch, Sync: true, ReplyTo: p.Name()}); err != nil {
				return err
			}
			if _, err := p.RecvMatch(func(v any) bool {
				a, ok := v.(ckptAck)
				return ok && a.Epoch == epoch
			}); err != nil {
				return err
			}
		} else {
			// Optimistic: checkpoint in parallel with the epoch's work.
			x := p.NewAID()
			if err := p.Send("stable", ckptReq{Worker: self, Epoch: epoch, Assumption: x}); err != nil {
				return err
			}
			if !p.Guess(x) {
				// Crash: HOPE restored the last checkpointed state by
				// rolling back to this epoch's start. Retry the epoch
				// under a fresh assumption.
				recoveries++
				continue
			}
			// Injected crash: the process "dies" before its checkpoint
			// reaches stable storage — a definite self-deny of the epoch
			// assumption (it is in the worker's own dependency set, so
			// Equation 15 applies immediately). If the checkpoint ack
			// already affirmed it, the crash harmlessly "missed": the
			// state was durable first.
			for _, e := range cfg.Crashes[self] {
				if e == epoch {
					if err := p.Deny(x); err != nil && !errors.Is(err, engine.ErrConflict) {
						return err
					}
				}
			}
		}

		for k := 0; k < epochRounds; k++ {
			r := round
			if err := p.Send(next, ringMsg{Round: r, Val: ringVal(self, r)}); err != nil {
				return err
			}
			me := p.Name()
			p.Effect(func() {
				rec.RecordSend(me, fmt.Sprintf("%s/%d", me, r), fmt.Sprintf("round %d", r))
			}, nil)
			m, err := p.RecvMatch(isRing)
			if err != nil {
				return err
			}
			rm := m.Payload.(ringMsg)
			from := m.From
			p.Effect(func() {
				rec.RecordRecv(me, fmt.Sprintf("%s/%d", from, rm.Round), fmt.Sprintf("round %d", rm.Round))
			}, nil)
			sum = fold(sum, rm.Val)
			round++
		}
	}

	finalSum, finalRec := sum, recoveries
	p.Effect(func() { report(finalSum, finalRec) }, nil)
	return nil
}

package experiments

import (
	"errors"
	"io"
	"time"

	"hope/internal/engine"
	"hope/internal/scenario"
)

// E9LoopCompaction ablates the engine.Loop checkpointing extension (the
// §7 "optimize checkpointing" future work): a long-running accumulator
// process consumes a definite message stream as (a) a plain Spawn body,
// whose replay log grows with every message, and (b) a Loop, which
// snapshots at settled boundaries and keeps the log constant. The table
// reports the peak replay-log length and the wall time for the stream.
func E9LoopCompaction(w io.Writer) error {
	t := newTable("E9 (ablation): replay-log growth, plain Spawn vs Loop",
		"messages", "mode", "peak log entries", "elapsed")
	for _, n := range []int{1_000, 10_000} {
		for _, mode := range []string{"spawn", "loop"} {
			peak, elapsed, err := runAccumulator(n, mode == "loop")
			if err != nil {
				return err
			}
			t.AddRow(n, mode, peak, elapsed)
		}
	}
	return render(w, t)
}

type accState struct{ sum int }

func cloneAcc(s *accState) *accState { cp := *s; return &cp }

func runAccumulator(n int, useLoop bool) (peakLog int, elapsed time.Duration, err error) {
	rt := engine.New(engine.WithOutput(io.Discard))
	defer rt.Shutdown()

	peak := 0
	observe := func(p *engine.Proc) {
		if l := p.LogLen(); l > peak {
			//hopevet:ignore escape -- measurement watermark; a monotonic max tolerates replay
			peak = l
		}
	}
	recvStep := func(p *engine.Proc, s *accState) error {
		observe(p)
		m, err := p.Recv()
		if err != nil {
			return err
		}
		v := m.Payload.(int)
		if v < 0 {
			return engine.ErrStopLoop
		}
		s.sum += v
		return nil
	}

	start := time.Now()
	if useLoop {
		err = engine.Loop(rt, "acc",
			func() *accState { return &accState{} },
			cloneAcc, recvStep)
	} else {
		err = rt.Spawn("acc", func(p *engine.Proc) error {
			s := &accState{}
			for {
				if e := recvStep(p, s); e != nil {
					if errors.Is(e, engine.ErrStopLoop) || errors.Is(e, engine.ErrShutdown) {
						return nil
					}
					return e
				}
			}
		})
	}
	if err != nil {
		return 0, 0, err
	}
	if err := rt.Spawn("src", func(p *engine.Proc) error {
		for i := 0; i < n; i++ {
			if err := p.Send("acc", i); err != nil {
				return err
			}
		}
		return p.Send("acc", -1)
	}); err != nil {
		return 0, 0, err
	}
	elapsed, err = scenario.Settle(rt, start)
	return peak, elapsed, err
}

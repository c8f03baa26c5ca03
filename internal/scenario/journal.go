package scenario

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"hope/internal/engine"
)

// journalState is one journal worker's loop state: which window it is
// in, the next record index, the current phase, and the window's pin
// assumption (an AID is a value, so the shallow copy in clone is a deep
// copy).
type journalState struct {
	B     int // window index
	I     int // next record within the window
	Phase int // 0 = open, 1 = records, 2 = judge
	Pin   engine.AID
}

const (
	journalOpen = iota
	journalRecords
	journalJudge
)

// Journal is the checkpoint-shaped workload: W workers each run `scale`
// windows of `batch` journaled records, holding speculation open across
// the whole window. A window opens with a pin assumption (guessed, and
// affirmed only at the window's end), streams its records to the sink
// — each a logged step the pin keeps from compacting — then guesses a
// late assumption that the worker itself denies on every even (w+b)
// window, §5.3-style. The deny rolls the worker back over the entire
// record batch: without checkpoints that whole history replays; with
// WithCheckpointEvery the worker resumes from a checkpoint near the
// rollback target. Record lines ride only on the pin (always affirmed),
// so they commit either way, and the verdict line is a pure function of
// (w, b) — the committed output is byte-identical under any fault plan
// and any checkpoint cadence, which is exactly what the differential
// and soak tests assert.
func Journal(windows int, opts ...engine.Option) (Result, error) {
	if windows <= 0 {
		windows = 6
	}
	const (
		workers = 4
		batch   = 8
	)
	total := workers * windows * (batch + 1)

	rt := engine.New(append([]engine.Option{engine.WithOutput(io.Discard)}, opts...)...)
	defer rt.Shutdown()

	if err := rt.Spawn("sink", func(p *engine.Proc) error {
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
	}); err != nil {
		return Result{}, err
	}

	start := time.Now()
	for w := 0; w < workers; w++ {
		w := w
		name := fmt.Sprintf("journal%d", w)
		if err := engine.Loop(rt, name,
			func() *journalState { return &journalState{} },
			func(s *journalState) *journalState { c := *s; return &c },
			func(p *engine.Proc, s *journalState) error {
				switch s.Phase {
				case journalOpen:
					if s.B >= windows {
						return engine.ErrStopLoop
					}
					s.Pin = p.NewAID()
					if !p.Guess(s.Pin) {
						// Only a shutdown drain denies a pin: bail out.
						return engine.ErrStopLoop
					}
					s.Phase, s.I = journalRecords, 0
				case journalRecords:
					v := (w+1)*1000 + s.B*100 + s.I
					if err := p.SendRetry("sink",
						fmt.Sprintf("w%d b%02d r%02d v%d", w, s.B, s.I, v), stormRetry); err != nil {
						return err
					}
					s.I++
					if s.I >= batch {
						s.Phase = journalJudge
					}
				case journalJudge:
					late := p.NewAID()
					verdict := "opt"
					if !p.Guess(late) {
						verdict = "pess" // replayed onto the pessimistic path
					}
					// The worker rules on its own late assumption (§5.3)
					// before any other op can exit the body and leak it:
					// an even (w+b) window denies it, rolling this worker
					// back over the batch it just journaled; re-resolution
					// on the replayed pass is an idempotent no-op.
					var err error
					if (w+s.B)%2 == 0 {
						err = p.Deny(late)
					} else {
						err = p.Affirm(late)
					}
					if err != nil && !errors.Is(err, engine.ErrConflict) {
						return err
					}
					if err := p.SendRetry("sink",
						fmt.Sprintf("w%d b%02d verdict %s", w, s.B, verdict), stormRetry); err != nil {
						return err
					}
					// Affirming the pin settles the whole window.
					if err := p.Affirm(s.Pin); err != nil && !errors.Is(err, engine.ErrConflict) {
						return err
					}
					s.B++
					s.Phase = journalOpen
				}
				return nil
			}); err != nil {
			return Result{}, err
		}
	}

	elapsed, err := Settle(rt, start)
	if err != nil {
		return Result{}, err
	}
	denied := workers * windows / 2 // (w+b)%2 == 0 for exactly half the windows
	return Result{
		Elapsed: elapsed,
		Note:    fmt.Sprintf("%d lines committed (%d windows replayed)", total, denied),
	}, nil
}

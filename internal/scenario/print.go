package scenario

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"hope/internal/engine"
	"hope/internal/rpc"
)

// Mode selects how a caller issues its RPCs and which server discipline
// answers them (rpc's "choosing a server discipline").
type Mode int

const (
	// Sync is the Figure-1 baseline: one blocking round trip per call.
	Sync Mode = iota
	// Optimistic streams calls at a server that answers speculative
	// requests: fastest when predictions are right, cascades when not.
	Optimistic
	// Ordered streams calls at a server that consumes only committed
	// requests: verification serializes, resolution stays well-founded.
	Ordered
)

// PageSize is the print server's page length in lines.
const PageSize = 50

// PrintJob is one Figure-1 job: print a total, then a summary; the page
// overflows when Lines pushes the position past the page size.
type PrintJob struct {
	// Lines is the number of lines the total print advances.
	Lines int
	// Overflow reports whether this job crosses the page boundary (the
	// PartPage assumption fails).
	Overflow bool
}

// PrintJobs generates n jobs where each overflows with probability
// pOverflow, against a page of pageSize lines — a pure function of the
// seed.
func PrintJobs(n, pageSize int, pOverflow float64, seed int64) []PrintJob {
	rng := rand.New(rand.NewSource(seed))
	out := make([]PrintJob, n)
	for i := range out {
		over := rng.Float64() < pOverflow
		lines := 1 + rng.Intn(pageSize-1) // stays on the page
		if over {
			lines = pageSize + rng.Intn(pageSize) // crosses it
		}
		out[i] = PrintJob{Lines: lines, Overflow: over}
	}
	return out
}

// printReq is one print call: a job's total (starting its page) or a
// one-line summary.
type printReq struct {
	Total bool
	Lines int
}

// printServer is the stateful Figure-1 print handler: a total print
// starts the job's page and returns the resulting line position —
// wrapping onto a new page when the total is long — and a summary print
// advances one line. The wrap is server-side knowledge, so a client
// predicting "no overflow" is exactly the paper's PartPage assumption.
func printServer() rpc.Handler {
	line := 0
	return func(req any) any {
		r := req.(printReq)
		if r.Total {
			line = r.Lines
			for line >= PageSize {
				line -= PageSize // newpage()
			}
		} else {
			line++
		}
		return line
	}
}

// Print runs the paper's one worked program: a report worker prints each
// job's total and summary through a remote print server `latency` away,
// mirroring the line position locally. Under Sync it is Figure 1; under
// Optimistic or Ordered it is Figure 2 — every call streams with the
// mirrored position as its prediction, wrong exactly when a job
// overflows, whereupon the WorryWart denies the assumption and the
// worker replays onto the pessimistic path with the actual position.
//
// The worker prints every reply, so the committed output is the
// sequence of line positions — identical in every mode, which is what
// lets one oracle hold Figure 2 to Figure 1.
func Print(jobs []PrintJob, latency time.Duration, mode Mode, opts ...engine.Option) (Result, error) {
	rt := engine.New(append([]engine.Option{
		engine.WithOutput(io.Discard),
		engine.WithLatency(func(from, to string) time.Duration { return latency }),
	}, opts...)...)
	defer rt.Shutdown()

	serve := rpc.ServeStateful
	if mode == Ordered {
		serve = rpc.ServeOrderedStateful
	}
	if err := serve(rt, "printer", printServer); err != nil {
		return Result{}, err
	}
	client, err := rpc.NewClient(rt, "worker")
	if err != nil {
		return Result{}, err
	}

	wrong := 0
	start := time.Now()
	if err := rt.Spawn("worker", func(p *engine.Proc) error {
		s := client.Session(p)
		local := 0 // the worker's mirror of the printer's line position
		miss := 0
		call := func(req printReq, predicted int) error {
			var got any
			accurate := true
			var err error
			if mode == Sync {
				got, err = s.Call("printer", req)
			} else {
				got, accurate, err = s.StreamCall("printer", req, predicted)
			}
			if err != nil {
				return err
			}
			if !accurate {
				miss++
			}
			local = got.(int) // the actual position on the pessimistic path
			p.Printf("%d\n", local)
			return nil
		}
		for _, job := range jobs {
			// S1: the total, under the PartPage assumption.
			if err := call(printReq{Total: true, Lines: job.Lines}, job.Lines); err != nil {
				return err
			}
			// S3: the summary line; the position is mirrored accurately
			// by now, so this prediction is always right.
			if err := call(printReq{}, local+1); err != nil {
				return err
			}
		}
		// Committed effect, not a body write: rollback could not undo
		// an escape write, and replay would repeat it.
		p.Effect(func() { wrong = miss }, nil)
		return nil
	}); err != nil {
		return Result{}, err
	}
	elapsed, err := Settle(rt, start)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Elapsed: elapsed,
		Note:    fmt.Sprintf("%d print calls, %d mispredicted", 2*len(jobs), wrong),
	}, nil
}

// CallStreaming is the registered Figure-2 workload: `jobs` print jobs
// streamed at the ordered print server under 200 µs latency. A quarter
// of the jobs overflow the page — a steady mix of affirms, denies, and
// rollbacks, and well below the accuracy at which the optimistic server
// stays live.
func CallStreaming(jobs int, opts ...engine.Option) (Result, error) {
	if jobs <= 0 {
		jobs = 200
	}
	return Print(PrintJobs(jobs, PageSize, 0.25, 1), 200*time.Microsecond, Ordered, opts...)
}

// Command callstreaming runs the paper's Figure 1 → Figure 2
// transformation end to end: a report worker prints running totals and
// summaries through a remote print server, first with synchronous RPCs
// (Figure 1), then with HOPE Call Streaming (Figure 2), and reports the
// latency each approach pays under a configurable network delay.
//
// The worker predicts the print server's reply by mirroring the line
// position locally, assuming jobs do not overflow the page — the paper's
// PartPage assumption. Overflowing jobs wrap at the server, the WorryWart
// denies the assumption, and the worker is rolled back onto the
// pessimistic path with the actual position.
//
//	go run ./examples/callstreaming -latency 5ms -jobs 20 -overflow 0.2
//
// With -obs the streamed run is instrumented and its speculation
// metrics printed; -trace additionally exports a Chrome trace-event
// timeline of the run (load it in https://ui.perfetto.dev).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hope"
	"hope/internal/rpc"
	"hope/internal/workload"
)

const pageSize = 50

// printReq is one print call: a job's total line (starting its page) or a
// one-line summary.
type printReq struct {
	Total bool
	Lines int
}

func main() {
	latency := flag.Duration("latency", 5*time.Millisecond, "one-way network latency")
	jobs := flag.Int("jobs", 20, "print jobs to run")
	overflow := flag.Float64("overflow", 0.2, "probability a job overflows the page")
	seed := flag.Int64("seed", 1, "workload seed")
	obsFlag := flag.Bool("obs", false, "print speculation metrics for the streamed run")
	traceOut := flag.String("trace", "", "write a Chrome trace of the streamed run (implies -obs)")
	flag.Parse()

	pageJobs := workload.PrintJobs(*jobs, pageSize, *overflow, *seed)

	syncT, err := run(pageJobs, *latency, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "callstreaming:", err)
		os.Exit(1)
	}
	var streamOpts []hope.Option
	var o *hope.Observer
	if *obsFlag || *traceOut != "" {
		o = hope.NewObserver()
		streamOpts = append(streamOpts, hope.WithPolicy(hope.Policy{Observer: o}))
	}
	streamT, err := run(pageJobs, *latency, true, streamOpts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "callstreaming:", err)
		os.Exit(1)
	}

	fmt.Printf("jobs=%d latency=%v overflow=%.0f%%\n", *jobs, *latency, *overflow*100)
	fmt.Printf("  synchronous RPC (Figure 1): %v\n", syncT.Round(time.Millisecond))
	fmt.Printf("  call streaming  (Figure 2): %v\n", streamT.Round(time.Millisecond))
	fmt.Printf("  speedup: %.2fx  (gain %.0f%%)\n",
		float64(syncT)/float64(streamT),
		100*(1-float64(streamT)/float64(syncT)))
	if o != nil {
		fmt.Println()
		fmt.Print(o.Dump())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = o.WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "callstreaming: trace:", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (open in https://ui.perfetto.dev)\n", *traceOut)
	}
}

// run executes the print workload and returns the worker's makespan.
func run(jobs []workload.PrintJob, latency time.Duration, streamed bool, opts ...hope.Option) (time.Duration, error) {
	rt := hope.New(append([]hope.Option{hope.WithPolicy(hope.Policy{
		Output:  io.Discard,
		Latency: func(from, to string) time.Duration { return latency },
	})}, opts...)...)
	defer rt.Shutdown()

	// The print server models Figure 1's print calls: a total print
	// starts the job's page and returns the resulting line position —
	// wrapping onto a new page when the total is long — and a summary
	// print advances one line. The wrap is server-side knowledge, so a
	// client predicting "no overflow" is exactly the paper's PartPage
	// assumption.
	if err := rpc.ServeStateful(rt, "printer", func() rpc.Handler {
		line := 0
		return func(req any) any {
			r := req.(printReq)
			if r.Total {
				line = r.Lines
				for line >= pageSize {
					line -= pageSize // newpage()
				}
			} else {
				line++
			}
			return line
		}
	}); err != nil {
		return 0, err
	}

	client, err := rpc.NewClient(rt, "worker")
	if err != nil {
		return 0, err
	}

	start := time.Now()
	if err := rt.Spawn("worker", func(p *hope.Proc) error {
		s := client.Session(p)
		local := 0 // the worker's mirror of the printer's line position
		call := func(req printReq, predicted int) error {
			if !streamed {
				got, err := s.Call("printer", req)
				if err != nil {
					return err
				}
				local = got.(int)
				return nil
			}
			got, _, err := s.StreamCall("printer", req, predicted)
			if err != nil {
				return err
			}
			local = got.(int) // the actual position on the pessimistic path
			return nil
		}
		for _, job := range jobs {
			// S1: print the total. The optimistic prediction is the
			// paper's PartPage assumption — the total stays on the page —
			// so it is wrong exactly when the job overflows.
			if err := call(printReq{Total: true, Lines: job.Lines}, job.Lines); err != nil {
				return err
			}
			// S3: print the summary line; the position is now mirrored
			// accurately, so this call always streams correctly.
			if err := call(printReq{}, local+1); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}

	// Makespan includes settlement: all assumptions verified, all
	// effects released — a fair comparison with the synchronous run.
	rt.Quiesce()
	elapsed := time.Since(start)
	rt.Shutdown()
	for _, err := range rt.Wait() {
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

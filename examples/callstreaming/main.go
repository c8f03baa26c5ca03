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
// pessimistic path with the actual position. The program itself is
// scenario.Print — the one definition the experiments, benchmarks and
// oracles share; this command only parses flags and reports.
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
	"os"
	"time"

	"hope"
	"hope/internal/scenario"
)

func main() {
	latency := flag.Duration("latency", 5*time.Millisecond, "one-way network latency")
	jobs := flag.Int("jobs", 20, "print jobs to run")
	overflow := flag.Float64("overflow", 0.2, "probability a job overflows the page")
	seed := flag.Int64("seed", 1, "workload seed")
	obsFlag := flag.Bool("obs", false, "print speculation metrics for the streamed run")
	traceOut := flag.String("trace", "", "write a Chrome trace of the streamed run (implies -obs)")
	flag.Parse()

	pageJobs := scenario.PrintJobs(*jobs, scenario.PageSize, *overflow, *seed)

	syncRes, err := scenario.Print(pageJobs, *latency, scenario.Sync)
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
	// rpc's rule of thumb: the optimistic print server while every
	// prediction holds, the ordered one once jobs can overflow.
	mode := scenario.Optimistic
	if *overflow > 0 {
		mode = scenario.Ordered
	}
	streamRes, err := scenario.Print(pageJobs, *latency, mode, streamOpts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "callstreaming:", err)
		os.Exit(1)
	}
	syncT, streamT := syncRes.Elapsed, streamRes.Elapsed

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

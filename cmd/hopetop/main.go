// Command hopetop runs a HOPE workload with the observability subsystem
// attached and renders its speculation metrics — like top, but for
// guesses: assumptions opened, affirm/deny resolutions, rollbacks and
// replay depth, speculation lifetimes, queue and scheduler pressure, and
// the per-shard, per-link and per-site rows obs.Dump prints beside them.
//
//	hopetop                          # callstreaming workload, final metrics
//	hopetop -w timewarp -interval 1s # live metrics while it runs
//	hopetop -w callstreaming -trace trace.json   # Perfetto timeline
//	hopetop -w fanout -json obs.json             # machine-readable snapshot
//	hopetop -w stormwire                         # one row per wire link
//	hopetop -w storm -policy adaptive            # one row per guess site
//	hopetop -list                                # what can run
//
// Chaos mode arms deterministic fault injection — crashes, drops,
// duplicates, delays, stalls — from a seed-driven plan; rerunning the
// same spec reproduces the same fault sequence, so hopetop prints the
// spec above the dump, whose faults line counts what was injected:
//
//	hopetop -w storm -faults seed=7,crash=0.02,maxcrashes=4,drop=0.2,dup=0.1,delay=0.3,stall=0.2
//
// Under -w stormwire the one plan is attached to all three runtimes, and
// each faults the messages its own processes send, so cross-node links
// are dropped, duplicated and delayed like same-node ones.
//
// The Chrome trace (-trace) loads in Perfetto (https://ui.perfetto.dev)
// or chrome://tracing: each process is a track, each speculative interval
// an async span from guess to settlement, with rollback and replay
// instants marking the cascades.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hope/internal/engine"
	"hope/internal/fault"
	"hope/internal/obs"
	"hope/internal/policy"
	"hope/internal/scenario"
)

func main() {
	var (
		wname    = flag.String("w", "callstreaming", "workload to run (see -list)")
		scale    = flag.Int("scale", 0, "workload scale knob (0 = workload default)")
		interval = flag.Duration("interval", 0, "live metrics refresh period (0 = final only)")
		events   = flag.Int("events", 8192, "event ring capacity (0 = metrics only)")
		traceOut = flag.String("trace", "", "write a Chrome trace-event file (load in Perfetto)")
		jsonOut  = flag.String("json", "", "write the observer snapshot as JSON")
		showEv   = flag.Bool("dump-events", false, "print the recorded event stream")
		polName  = flag.String("policy", "on", "speculation policy: on, off, or adaptive")
		list     = flag.Bool("list", false, "list workloads")
		faultStr = flag.String("faults", "", "chaos mode: fault spec, e.g. seed=7,crash=0.02,drop=0.1,dup=0.05,delay=0.2,stall=0.1")
		cpEvery  = flag.Int("cpevery", 0, "checkpoint Loop processes every K logged events (0 = off); rollbacks resume from the newest checkpoint")
	)
	flag.Parse()

	if *list {
		fmt.Println("workloads (-w):")
		for _, s := range scenario.All() {
			fmt.Printf("  %-14s %s (default scale %d)\n", s.Name, s.Desc, s.DefaultScale)
		}
		return
	}

	spec, ok := scenario.Find(*wname)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (try -list)", *wname))
	}

	var plan *fault.Plan
	if *faultStr != "" {
		var err error
		if plan, err = fault.Parse(*faultStr); err != nil {
			fatal(err)
		}
	}

	o := obs.New(obs.WithEventCapacity(*events))
	opts := []engine.Option{engine.WithObserver(o)}
	switch *polName {
	case "on":
		// Always-on is the nil-controller fast path: no admission checks,
		// and no per-site rows in the dump.
	case "off":
		opts = append(opts, engine.WithSpeculation(policy.AlwaysOff(policy.Config{})))
	case "adaptive":
		opts = append(opts, engine.WithSpeculation(policy.NewAdaptive(policy.Config{})))
	default:
		fatal(fmt.Errorf("unknown -policy %q (want on, off, or adaptive)", *polName))
	}
	if plan != nil {
		opts = append(opts, engine.WithFaults(plan))
	}
	if *cpEvery > 0 {
		opts = append(opts, engine.WithCheckpointEvery(*cpEvery))
	}
	done := make(chan struct{})
	var (
		res    scenario.Result
		runErr error
	)
	go func() {
		defer close(done)
		res, runErr = spec.Run(*scale, opts...)
	}()

	if *interval > 0 {
		tick := time.NewTicker(*interval)
		defer tick.Stop()
	live:
		for {
			select {
			case <-done:
				break live
			case <-tick.C:
				fmt.Printf("--- %s t=%v\n%s", spec.Name, o.Now().Round(time.Millisecond), o.Dump())
			}
		}
	} else {
		<-done
	}
	if runErr != nil {
		fatal(runErr)
	}

	fmt.Printf("workload %s: %s in %v\n", spec.Name, res.Note, res.Elapsed.Round(10*time.Microsecond))
	if plan != nil {
		fmt.Printf("fault plan: %s\n", plan)
	}
	fmt.Println()
	fmt.Print(o.Dump())
	if *showEv {
		fmt.Println()
		fmt.Print(o.DumpEvents())
	}

	if *jsonOut != "" {
		if err := writeFile(*jsonOut, o.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Printf("\nsnapshot written to %s\n", *jsonOut)
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, o.WriteChromeTrace); err != nil {
			fatal(err)
		}
		fmt.Printf("\ntrace written to %s (open in https://ui.perfetto.dev)\n", *traceOut)
	}
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hopetop:", err)
	os.Exit(1)
}

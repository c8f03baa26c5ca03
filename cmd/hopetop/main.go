// Command hopetop runs a HOPE workload with the observability subsystem
// attached and renders its speculation metrics — like top, but for
// guesses: assumptions opened, affirm/deny resolutions, rollbacks and
// replay depth, speculation lifetimes, queue and scheduler pressure.
//
//	hopetop                          # callstreaming workload, final metrics
//	hopetop -w timewarp -interval 1s # live metrics while it runs
//	hopetop -w callstreaming -trace trace.json   # Perfetto timeline
//	hopetop -w fanout -json obs.json             # machine-readable snapshot
//	hopetop -w storm -shards                     # per-shard tracker table
//	hopetop -w stormwire -peers                  # wire transport per-link table
//	hopetop -w storm -policy adaptive -sites     # per-site admission table
//	hopetop -list                                # what can run
//
// Chaos mode arms deterministic fault injection — crashes, drops,
// duplicates, delays, stalls — from a seed-driven plan; rerunning the
// same spec reproduces the same fault sequence:
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
	"strings"
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
		showSh   = flag.Bool("shards", false, "print the per-shard tracker table (assumptions, epoch, heap)")
		showPe   = flag.Bool("peers", false, "print the wire peers table (frames, bytes, redeliveries per link)")
		showSi   = flag.Bool("sites", false, "print the per-site admission table (accuracy, admits, denies, controller state)")
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
		// and no per-site rows for -sites to show.
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

	fmt.Printf("workload %s: %s in %v\n\n", spec.Name, res.Note, res.Elapsed.Round(10*time.Microsecond))
	fmt.Print(o.Dump())
	if plan != nil {
		c := plan.Counts()
		fmt.Printf("\nfaults (%s): %d injected — crash %d, drop %d, dup %d, delay %d, stall %d\n",
			plan, plan.Total(),
			c[fault.Crash], c[fault.Drop], c[fault.Dup], c[fault.Delay], c[fault.Stall])
	}
	if *showSh {
		fmt.Println()
		fmt.Print(shardTable(o))
	}
	if *showPe {
		fmt.Println()
		fmt.Print(peersTable(o))
	}
	if *showSi {
		fmt.Println()
		fmt.Print(sitesTable(o))
	}
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

// shardTable renders the tracker's per-shard occupancy: live
// assumptions, resolution-epoch position (how many settles landed
// there), and peak delivery-heap depth for the shard's scheduler. An
// even assumptions column means the AID hash is spreading load; one hot
// epoch column means resolutions are concentrating on a shard.
func shardTable(o *obs.Observer) string {
	m := o.Snapshot().Metrics
	n := len(m.ShardAssumptions)
	if len(m.ShardEpochs) > n {
		n = len(m.ShardEpochs)
	}
	if len(m.ShardHeapDepth) > n {
		n = len(m.ShardHeapDepth)
	}
	if n == 0 {
		return "shards: no per-shard activity recorded\n"
	}
	at := func(s []int64, i int) int64 {
		if i < len(s) {
			return s[i]
		}
		return 0
	}
	var b strings.Builder
	fmt.Fprintf(&b, "shards (%d, escalations=%d):\n", n, m.ShardContention)
	fmt.Fprintf(&b, "  %5s %12s %10s %9s\n", "shard", "assumptions", "epoch", "heap-max")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  %5d %12d %10d %9d\n",
			i, at(m.ShardAssumptions, i), at(m.ShardEpochs, i), at(m.ShardHeapDepth, i))
	}
	return b.String()
}

// peersTable renders the wire transport's per-link counters: one row
// per registered peer link ("→nodeN" outbound, "←nodeN" inbound),
// frames and bytes each way, and redeliveries — frames the per-sender
// sequence filter saw at or below its high-water mark (transport
// duplicates, either injected or retry-induced). Populated by
// wire-backed workloads (-w stormwire); empty otherwise.
func peersTable(o *obs.Observer) string {
	snap := o.Snapshot()
	if len(snap.WirePeers) == 0 {
		return "wire peers: no wire transport attached\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "wire peers (%d links, verdict fanout=%d):\n", len(snap.WirePeers), snap.Metrics.WireVerdictFanout)
	fmt.Fprintf(&b, "  %-10s %9s %9s %10s %10s %7s\n", "peer", "frames-in", "frames-out", "bytes-in", "bytes-out", "redeliv")
	for _, p := range snap.WirePeers {
		fmt.Fprintf(&b, "  %-10s %9d %9d %10d %10d %7d\n",
			p.Peer, p.FramesIn, p.FramesOut, p.BytesIn, p.BytesOut, p.Redeliveries)
	}
	return b.String()
}

// sitesTable renders the admission controller's view of each static
// Guess site: observed accuracy, how many guesses were admitted to
// speculate vs denied into a pessimistic wait, resolution counts, wait
// budget expiries, and the controller state (on / throttled / off).
// Rows appear only when a controller is attached (-policy off or
// adaptive); always-on never consults admission, so there is nothing to
// show.
func sitesTable(o *obs.Observer) string {
	sites := o.SiteStats()
	if len(sites) == 0 {
		return "sites: no admission-checked guesses (run with -policy adaptive or off)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "guess sites (%d):\n", len(sites))
	fmt.Fprintf(&b, "  %-28s %8s %7s %7s %7s %7s %7s %8s %9s\n",
		"site", "accuracy", "guesses", "admit", "deny", "affirm", "refute", "timeout", "state")
	for _, s := range sites {
		fmt.Fprintf(&b, "  %-28s %7.0f%% %7d %7d %7d %7d %7d %8d %9s\n",
			s.Key, 100*s.Estimate, s.Guesses, s.Admitted, s.Denied,
			s.Affirms, s.Refutes, s.WaitTimeouts, s.State)
	}
	return b.String()
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

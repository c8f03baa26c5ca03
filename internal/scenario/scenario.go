// Package scenario is the one place this repository defines workloads:
// every runtime that hopetop, hopebench, hopenode, the experiments, the
// top-level benchmarks and examples/callstreaming run for the print,
// echo and wire-cluster families is built here, so the byte-identical
// oracles in this package's tests run the code the experiments time.
// (The frozen benchmark/ directory keeps its own bodies.)
//
//   - print.go — the paper's Figure 1 → Figure 2 print worker (Print,
//     PrintJobs); registered as "callstreaming", swept by E1, called by
//     BenchmarkE1 and examples/callstreaming.
//   - echo.go — accuracy-trace echo calls (Echo, AccuracyTrace);
//     registered as "echo", swept by E3, E10 and BenchmarkE3/E10, and
//     by the adaptive-admission shape test.
//   - cluster.go — RunNode, one runtime joined to a wire mesh, and
//     Loopback, n of them in this process; StormNode (cmd/hopenode) and
//     StormWire are their clients.
//   - storm.go, journal.go, and Fanout/TimeWarp below — the fault,
//     checkpoint, delivery and Time Warp workloads.
//
// Each workload accepts engine options so callers can attach an
// observer, a fault plan, a checkpoint cadence or a speculation policy
// without the workload knowing; the workloads themselves only exercise
// the primitives.
package scenario

import (
	"fmt"
	"io"
	"time"

	"hope/internal/engine"
	"hope/internal/timewarp"
)

// Result summarizes one workload run.
type Result struct {
	// Elapsed is the workload makespan including settlement (Quiesce).
	Elapsed time.Duration
	// Note is a one-line workload-specific outcome summary.
	Note string
}

// Spec names one runnable workload. Scale is the workload's single size
// knob (jobs, rounds, population — see Desc); 0 means the default.
type Spec struct {
	Name         string
	Desc         string
	DefaultScale int
	Run          func(scale int, opts ...engine.Option) (Result, error)
}

// All lists the available workloads.
func All() []Spec {
	return []Spec{
		{
			Name:         "callstreaming",
			Desc:         "Figure-2 streamed print calls; scale = jobs, 25% overflow forces rollbacks",
			DefaultScale: 200,
			Run:          CallStreaming,
		},
		{
			Name:         "echo",
			Desc:         "streamed echo calls, 75% predicted right, ordered server; scale = calls",
			DefaultScale: 96,
			Run:          EchoStream,
		},
		{
			Name:         "fanout",
			Desc:         "one sender broadcasting to 16 receivers under latency; scale = rounds",
			DefaultScale: 64,
			Run:          Fanout,
		},
		{
			Name:         "timewarp",
			Desc:         "PHOLD Time Warp simulation; scale = event population",
			DefaultScale: 8,
			Run:          TimeWarp,
		},
		{
			Name:         "storm",
			Desc:         "fault-injection oracle: speculate/judge/settle; scale = jobs per worker",
			DefaultScale: 24,
			Run:          Storm,
		},
		{
			Name:         "stormwire",
			Desc:         "distributed storm: 3 runtimes over loopback-TCP wire transport; scale = jobs per worker",
			DefaultScale: 8,
			Run:          StormWire,
		},
		{
			Name:         "journal",
			Desc:         "checkpoint oracle: long speculation windows, self-denied batches; scale = windows per worker",
			DefaultScale: 6,
			Run:          Journal,
		},
	}
}

// Find returns the named workload.
func Find(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Settle is the tail every single-runtime workload ends with: wait for
// the runtime to quiesce, stamp the makespan since start (settlement
// included — all assumptions verified, all effects released), shut
// down, and report the first process error.
func Settle(rt *engine.Runtime, start time.Time) (time.Duration, error) {
	rt.Quiesce()
	elapsed := time.Since(start)
	rt.Shutdown()
	for _, err := range rt.Wait() {
		if err != nil {
			return elapsed, err
		}
	}
	return elapsed, nil
}

// Fanout broadcasts rounds of messages from one sender to 16 receivers
// under a latency model — the delivery-scheduler hot path
// (BenchmarkFanoutDelivery's shape), useful for queue-depth and
// heap-size metrics and as the instrumentation-overhead baseline.
func Fanout(rounds int, opts ...engine.Option) (Result, error) {
	if rounds <= 0 {
		rounds = 64
	}
	const receivers = 16
	rt := engine.New(append([]engine.Option{
		engine.WithOutput(io.Discard),
		engine.WithLatency(func(from, to string) time.Duration { return 50 * time.Microsecond }),
	}, opts...)...)
	defer rt.Shutdown()

	start := time.Now()
	for r := 0; r < receivers; r++ {
		name := fmt.Sprintf("rx%d", r)
		if err := rt.Spawn(name, func(p *engine.Proc) error {
			for j := 0; j < rounds; j++ {
				if _, err := p.Recv(); err != nil {
					return nil
				}
			}
			return nil
		}); err != nil {
			return Result{}, err
		}
	}
	if err := rt.Spawn("tx", func(p *engine.Proc) error {
		for j := 0; j < rounds; j++ {
			for r := 0; r < receivers; r++ {
				if err := p.Send(fmt.Sprintf("rx%d", r), j); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return Result{}, err
	}
	for _, err := range rt.Wait() {
		if err != nil {
			return Result{}, err
		}
	}
	elapsed := time.Since(start)
	return Result{
		Elapsed: elapsed,
		Note:    fmt.Sprintf("%d messages delivered", receivers*rounds),
	}, nil
}

// TimeWarp runs the PHOLD discrete-event simulation as a HOPE Time Warp
// (§2's related-work claim): stragglers deny message-order assumptions,
// driving deep rollback cascades across the logical processes.
func TimeWarp(population int, opts ...engine.Option) (Result, error) {
	if population <= 0 {
		population = 8
	}
	cfg := timewarp.Config{
		LPs:        4,
		Population: population,
		Horizon:    300,
		MaxDelta:   10,
		Seed:       42,
	}
	start := time.Now()
	res, err := timewarp.Parallel(cfg, append([]engine.Option{engine.WithOutput(io.Discard)}, opts...)...)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Elapsed: time.Since(start),
		Note: fmt.Sprintf("%d events, %d rollbacks, %d stragglers",
			res.Events, res.Rollbacks, res.Stragglers),
	}, nil
}

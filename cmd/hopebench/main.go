// Command hopebench regenerates the experiment tables recorded in
// EXPERIMENTS.md: the paper's quantitative claims (E1–E3) and the
// characterization of every substrate the library ships (E4–E15).
//
//	hopebench              # run everything
//	hopebench -exp E1,E3   # run a subset
//	hopebench -list        # list experiments
//	hopebench -json        # machine-readable results (perf trajectory)
//
// The -json form is what BENCH_runtime.json at the repo root is recorded
// with; future changes compare against it to catch perf regressions.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"hope/internal/engine"
	"hope/internal/experiments"
	"hope/internal/obs"
	"hope/internal/scenario"
)

// result is one experiment's machine-readable record.
type result struct {
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	Seconds float64 `json:"seconds"`
	// Output is the rendered table text; trajectory tooling diffs the
	// shape and parses the columns it cares about.
	Output string `json:"output"`
}

// obsSection is the observability snapshot of one instrumented smoke
// workload, embedded so the trajectory records speculation-lifecycle
// counters (affirm/deny mix, rollbacks, replay depth) alongside timings.
type obsSection struct {
	Workload string       `json:"workload"`
	Scale    int          `json:"scale"`
	Snapshot obs.Snapshot `json:"snapshot"`
}

// overheadSection measures the cost of metrics emission on the fanout
// delivery path: the same workload with the no-op sink (nil observer —
// every hook point is one nil check, the shipped default) vs. a live
// observer (atomic counters per hook). Each figure is the minimum of
// interleaved testing.Benchmark runs — the least-interfered run on a
// timer-dominated workload — and the per-variant spread (max over min,
// as a percentage) records the run-to-run noise floor the overhead must
// be judged against: the claim holds when |overhead| ≲ spread.
type overheadSection struct {
	Workload          string  `json:"workload"`
	Rounds            int     `json:"rounds"`
	Runs              int     `json:"runs"`
	NoopSinkSeconds   float64 `json:"noop_sink_seconds"`
	InstrumentedSecs  float64 `json:"instrumented_seconds"`
	OverheadPct       float64 `json:"overhead_pct"`
	NoopSpreadPct     float64 `json:"noop_spread_pct"`
	InstrSpreadPct    float64 `json:"instrumented_spread_pct"`
	InstrumentedHooks uint64  `json:"instrumented_hooks"`
}

// report is the top-level JSON document.
type report struct {
	Tool            string           `json:"tool"`
	GoVersion       string           `json:"go_version"`
	GOOS            string           `json:"goos"`
	GOARCH          string           `json:"goarch"`
	RecordedAt      string           `json:"recorded_at"`
	Experiments     []result         `json:"experiments"`
	Obs             *obsSection      `json:"obs,omitempty"`
	MetricsOverhead *overheadSection `json:"metrics_overhead,omitempty"`
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment IDs (E1..E15) or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON results on stdout")
	flag.Parse()

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-3s %s\n", e.ID, e.Title)
		}
		return
	}

	want := map[string]bool{}
	if *expFlag != "all" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	rep := report{
		Tool:       "hopebench",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
	}
	// The overhead comparison runs first, on a quiet machine: minutes of
	// experiment load first would leave clock-frequency and GC transients
	// that drown the per-hook cost being measured.
	if *jsonOut {
		oh, err := metricsOverhead()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hopebench: overhead bench: %v\n", err)
			os.Exit(1)
		}
		rep.MetricsOverhead = oh
	}
	ran := 0
	for _, e := range all {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		var out io.Writer = os.Stdout
		var buf bytes.Buffer
		if *jsonOut {
			out = &buf
		} else {
			fmt.Printf("== %s: %s ==\n\n", e.ID, e.Title)
		}
		start := time.Now()
		if err := e.Run(out); err != nil {
			fmt.Fprintf(os.Stderr, "hopebench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		if *jsonOut {
			rep.Experiments = append(rep.Experiments, result{
				ID: e.ID, Title: e.Title,
				Seconds: elapsed.Seconds(),
				Output:  buf.String(),
			})
		} else {
			fmt.Printf("(%s completed in %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "hopebench: no experiments matched; use -list")
		os.Exit(1)
	}
	if *jsonOut {
		o, err := smokeObs()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hopebench: obs smoke: %v\n", err)
			os.Exit(1)
		}
		rep.Obs = o
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "hopebench: %v\n", err)
			os.Exit(1)
		}
	}
}

// smokeObs runs an instrumented callstreaming smoke workload and returns
// its observability snapshot.
func smokeObs() (*obsSection, error) {
	const scale = 40
	o := obs.New(obs.WithEventCapacity(4096))
	if _, err := scenario.CallStreaming(scale, engine.WithObserver(o)); err != nil {
		return nil, err
	}
	return &obsSection{Workload: "callstreaming", Scale: scale, Snapshot: o.Snapshot()}, nil
}

// metricsOverhead times the fanout delivery workload (the
// BenchmarkFanoutDelivery shape) with the no-op sink and with a live
// observer, via testing.Benchmark so iteration counts auto-scale past
// scheduler jitter. The no-op sink is a nil observer: every hook point
// degenerates to one nil check, so this also bounds the cost of merely
// having the hooks compiled in.
func metricsOverhead() (*overheadSection, error) {
	const (
		rounds  = 16
		repeats = 7
	)
	sample := func(o *obs.Observer) (float64, int, error) {
		var runErr error
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := scenario.Fanout(rounds, engine.WithObserver(o)); err != nil {
					runErr = err
					return
				}
			}
		})
		if runErr != nil {
			return 0, 0, runErr
		}
		return float64(res.NsPerOp()) / 1e9, res.N, nil
	}
	// Interleave the variants in ABBA order (so neither side
	// systematically runs first) and discard one warmup pair: clock-
	// frequency drift between blocks, or transients left behind by the
	// experiment suite that just ran, must not masquerade as
	// instrumentation cost.
	o := obs.New()
	if _, _, err := sample(nil); err != nil {
		return nil, err
	}
	if _, _, err := sample(o); err != nil {
		return nil, err
	}
	var noop, instr []float64
	nruns := 0
	for r := 0; r < repeats; r++ {
		order := []*obs.Observer{nil, o}
		if r%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, v := range order {
			s, n, err := sample(v)
			if err != nil {
				return nil, err
			}
			if v == nil {
				noop = append(noop, s)
				nruns += n
			} else {
				instr = append(instr, s)
			}
		}
	}
	sort.Float64s(noop)
	sort.Float64s(instr)
	// Minimum, not median: the op time is dominated by 50µs delivery
	// timers, so scheduler and frequency interference only ever add
	// time — the min of each variant is the cleanest estimate of its
	// true cost, and the spread says how noisy this machine was.
	nsec, isec := noop[0], instr[0]
	m := o.Metrics().Snapshot()
	return &overheadSection{
		Workload:          "fanout",
		Rounds:            rounds,
		Runs:              nruns,
		NoopSinkSeconds:   nsec,
		InstrumentedSecs:  isec,
		OverheadPct:       100 * (isec - nsec) / nsec,
		NoopSpreadPct:     100 * (noop[len(noop)-1] - nsec) / nsec,
		InstrSpreadPct:    100 * (instr[len(instr)-1] - isec) / isec,
		InstrumentedHooks: uint64(m.MsgsEnqueued),
	}, nil
}

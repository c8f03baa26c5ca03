package experiments

import (
	"fmt"
	"io"
	"time"

	"hope/internal/scenario"
)

// printMakespan runs scenario.Print once and returns its settled
// makespan.
func printMakespan(jobs []scenario.PrintJob, latency time.Duration, mode scenario.Mode) (time.Duration, error) {
	res, err := scenario.Print(jobs, latency, mode)
	return res.Elapsed, err
}

// E1CallStreaming regenerates the paper's headline performance claim:
// Call Streaming (Figure 2) against synchronous RPC (Figure 1) over a
// latency × overflow-probability sweep, under both server disciplines.
// The §7 claim is "performance gains of up to 80%": the gain should
// approach that as predictions become accurate, and shrink as the
// PartPage assumption fails more often.
func E1CallStreaming(w io.Writer) error {
	t := newTable("E1: Call Streaming vs synchronous RPC (20 jobs)",
		"latency", "overflow", "sync", "optimistic", "speedup", "ordered", "speedup")
	for _, latency := range []time.Duration{1 * time.Millisecond, 4 * time.Millisecond} {
		for _, overflow := range []float64{0, 0.1, 0.3} {
			jobs := scenario.PrintJobs(20, scenario.PageSize, overflow, 7)
			syncT, err := printMakespan(jobs, latency, scenario.Sync)
			if err != nil {
				return err
			}
			optT, err := printMakespan(jobs, latency, scenario.Optimistic)
			if err != nil {
				return err
			}
			ordT, err := printMakespan(jobs, latency, scenario.Ordered)
			if err != nil {
				return err
			}
			t.AddRow(latency, fmt.Sprintf("%.0f%%", overflow*100), syncT,
				optT, speedup(syncT, optT),
				ordT, speedup(syncT, ordT))
		}
	}
	return render(w, t)
}

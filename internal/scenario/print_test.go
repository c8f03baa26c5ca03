package scenario

import (
	"fmt"
	"testing"
	"time"

	"hope/internal/engine"
	"hope/internal/obs"
	"hope/internal/testutil"
)

// TestPrintStreamMatchesSync holds Figure 2 to Figure 1: the streamed
// print worker against the ordered server commits exactly the bytes the
// synchronous program prints — with every prediction right and with a
// quarter of the jobs overflowing, at the default shard count and on
// one shard.
func TestPrintStreamMatchesSync(t *testing.T) {
	run := func(jobs []PrintJob, mode Mode, opts ...engine.Option) string {
		t.Helper()
		buf := &testutil.SyncBuffer{}
		if _, err := Print(jobs, time.Millisecond, mode, append(opts, engine.WithOutput(buf))...); err != nil {
			t.Fatalf("Print mode %d: %v", mode, err)
		}
		return buf.String()
	}
	for _, overflow := range []float64{0, 0.25} {
		jobs := PrintJobs(20, PageSize, overflow, 7)
		want := run(jobs, Sync)
		if want == "" {
			t.Fatal("synchronous print run committed no output")
		}
		for _, shards := range []struct {
			name string
			opts []engine.Option
		}{
			{"default shards", nil},
			{"1 shard", []engine.Option{engine.WithShards(1)}},
		} {
			t.Run(fmt.Sprintf("overflow %.2f/%s", overflow, shards.name), func(t *testing.T) {
				for i := 0; i < 3; i++ {
					if got := run(jobs, Ordered, shards.opts...); got != want {
						t.Fatalf("run %d: streamed committed output diverged from synchronous\nwant:\n%s\ngot:\n%s", i, want, got)
					}
				}
			})
		}
	}
}

// TestPrintRetiresOrphanedAssumptions runs Figure 2's quadratic case: a
// misprediction rolls the worker back past every later StreamCall, whose
// AIDs replay mints afresh, so the AIDs each rollback abandons grow with
// the square of the stream length. Settle's quiescence oracle fails any
// size that leaves an assumption record or a live interval.
func TestPrintRetiresOrphanedAssumptions(t *testing.T) {
	for _, n := range []int{25, 50, 100, 200} {
		res, err := Print(PrintJobs(n, PageSize, 0.25, 1), 200*time.Microsecond, Ordered)
		if err != nil {
			t.Fatalf("%d jobs: %v", n, err)
		}
		var calls, wrong int
		if _, err := fmt.Sscanf(res.Note, "%d print calls, %d mispredicted", &calls, &wrong); err != nil || wrong == 0 {
			t.Fatalf("%d jobs: %q mispredicted nothing, so nothing rolled back", n, res.Note)
		}
	}
}

// TestPrintHorizonBoundsLiveReruns: a streamed call waits for the verdict
// of the call its verifier is still checking, so a misprediction re-runs
// live — beyond the prefix it replays — only the calls issued since,
// fewer than one pool's worth, at any stream length. Without the horizon
// the worker runs ahead to the end of the stream, and each misprediction
// re-runs the rest of it: 20.7, 53.9, 86.3 and 199.9 calls at 25, 50,
// 100 and 200 jobs. The worker is the only process that guesses, and
// each live StreamCall guesses once.
func TestPrintHorizonBoundsLiveReruns(t *testing.T) {
	const verifiers = 8 // rpc.NewClient's default pool, which Print uses
	for _, n := range []int{25, 50, 100, 200} {
		o := obs.New(obs.WithEventCapacity(0))
		res, err := Print(PrintJobs(n, PageSize, 0.25, 1), 200*time.Microsecond, Ordered, engine.WithObserver(o))
		if err != nil {
			t.Fatalf("%d jobs: %v", n, err)
		}
		var calls, wrong int
		if _, err := fmt.Sscanf(res.Note, "%d print calls, %d mispredicted", &calls, &wrong); err != nil || wrong == 0 {
			t.Fatalf("%d jobs: %q mispredicted nothing, so nothing rolled back", n, res.Note)
		}
		m := o.Metrics().Snapshot()
		reruns := float64(m.GuessesOpened+m.ShortGuesses-int64(calls)) / float64(wrong)
		t.Logf("%d jobs: %d calls, %d mispredicted, %.2f live re-runs per misprediction", n, calls, wrong, reruns)
		if reruns > verifiers {
			t.Errorf("%d jobs: a misprediction re-ran %.2f calls live, want at most the pool's %d", n, reruns, verifiers)
		}
	}
}

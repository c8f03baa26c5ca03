package scenario

import (
	"fmt"
	"testing"
	"time"

	"hope/internal/engine"
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

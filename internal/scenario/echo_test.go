package scenario

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"hope/internal/engine"
	"hope/internal/testutil"
)

// TestEchoOptimisticCommitsInProgramOrder: against the optimistic echo
// server every reply is a speculative affirm, so the caller's intervals
// are re-homed from one assumption's DOM to the next and a single settle
// finalizes several of them, in DOM order. The caller's lines must
// still commit 0..n-1. Pinned to one scheduler thread, where the
// schedule — and, before the tracker released commits in interval order,
// the scrambled output — is deterministic; with more threads a second
// settle's release can still overtake the first's (ROADMAP "Commit
// order across settles"), which is not what this test is about.
func TestEchoOptimisticCommitsInProgramOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const calls = 24
	var want strings.Builder
	for i := 0; i < calls; i++ {
		fmt.Fprintln(&want, i)
	}
	for _, shards := range []int{1, 2} {
		buf := &testutil.SyncBuffer{}
		_, err := Echo(AccuracyTrace(calls, 1, 11), time.Millisecond, Optimistic, 0,
			engine.WithShards(shards), engine.WithOutput(buf))
		if err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != want.String() {
			t.Errorf("%d shard(s): committed lines out of program order: %q", shards, strings.Fields(got))
		}
	}
}

package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hope/internal/netsim"
	"hope/internal/policy"
	"hope/internal/scenario"
)

// The tests here assert the *shapes* the paper claims, with generous
// margins: wall-clock measurements vary, but who wins and by what order
// of magnitude must not.

func TestE1ShapeStreamingWinsAtHighAccuracy(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock shape assertion: skipped under the race detector")
	}
	jobs := scenario.PrintJobs(12, scenario.PageSize, 0, 7) // no overflow: predictions all accurate
	const latency = 2 * time.Millisecond
	syncT, err := printMakespan(jobs, latency, scenario.Sync)
	if err != nil {
		t.Fatal(err)
	}
	// The ordered column: verification serializes behind committed
	// requests, so the gain (42–47% measured) sits below the optimistic
	// server's one-scheduler best case — but it holds at any shard
	// count, which the optimistic column does not (ROADMAP, "Figure 2
	// request routing").
	streamT, err := printMakespan(jobs, latency, scenario.Ordered)
	if err != nil {
		t.Fatal(err)
	}
	if float64(streamT) > 0.75*float64(syncT) {
		t.Fatalf("ordered streaming %v vs sync %v: gain below 25%% at perfect accuracy", streamT, syncT)
	}
	t.Logf("gain = %.0f%%", 100*(1-float64(streamT)/float64(syncT)))
}

func TestE1ShapeMispredictionsDegradeGracefully(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock shape assertion: skipped under the race detector")
	}
	jobs := scenario.PrintJobs(12, scenario.PageSize, 0.3, 7)
	const latency = 2 * time.Millisecond
	syncT, err := printMakespan(jobs, latency, scenario.Sync)
	if err != nil {
		t.Fatal(err)
	}
	// Ordered verification: no backward cascade, so even at 30% overflow
	// streaming should not be dramatically slower than sync.
	streamT, err := printMakespan(jobs, latency, scenario.Ordered)
	if err != nil {
		t.Fatal(err)
	}
	if float64(streamT) > 1.5*float64(syncT) {
		t.Fatalf("ordered streaming %v vs sync %v: degradation too steep", streamT, syncT)
	}
}

func TestE2ShapeMatchesPaperArithmetic(t *testing.T) {
	// §3.1: ~30 calls/s synchronous, ~100k packets/s streamed at 30 ms
	// RTT on 100 Mb/s. Deterministic (virtual time).
	s1 := netsim.NewSim(1)
	d := netsim.NewDuplex(s1, 15*time.Millisecond, 100_000_000)
	sync := netsim.SyncRPC(s1, d, 100, 100, 100)
	if sync.CallsPerSec < 25 || sync.CallsPerSec > 40 {
		t.Fatalf("sync calls/s = %.1f, want ≈30", sync.CallsPerSec)
	}
	s2 := netsim.NewSim(1)
	l := netsim.NewLink(s2, 15*time.Millisecond, 100_000_000)
	stream := netsim.Stream(s2, l, 100, 50_000)
	if stream.PacketsPerSec < 100_000 {
		t.Fatalf("streamed packets/s = %.0f, want ≥100k", stream.PacketsPerSec)
	}
}

func TestE3ShapeCrossover(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock shape assertion: skipped under the race detector")
	}
	// At perfect accuracy the optimistic server must beat sync; at zero
	// accuracy it must not (rollback churn dominates).
	const latency = 2 * time.Millisecond
	perfect := scenario.AccuracyTrace(12, 1, 3)
	never := scenario.AccuracyTrace(12, 0, 3)

	syncT, err := echoMakespan(perfect, latency, scenario.Sync, 0)
	if err != nil {
		t.Fatal(err)
	}
	fastT, err := echoMakespan(perfect, latency, scenario.Optimistic, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fastT >= syncT {
		t.Fatalf("optimistic %v not faster than sync %v at accuracy 1.0", fastT, syncT)
	}

	syncT0, err := echoMakespan(never, latency, scenario.Sync, 0)
	if err != nil {
		t.Fatal(err)
	}
	slowT, err := echoMakespan(never, latency, scenario.Optimistic, 0)
	if err != nil {
		t.Fatal(err)
	}
	if float64(slowT) < 0.8*float64(syncT0) {
		t.Fatalf("optimism should not win at accuracy 0: opt %v vs sync %v", slowT, syncT0)
	}
}

func TestE4ShapeCascadeScalesWithSuffix(t *testing.T) {
	// Denying the outermost of a deep chain discards more intervals than
	// denying the innermost.
	_, outerStats, err := cascade(16, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	_, innerStats, err := cascade(16, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if outerStats.RolledBack != 16 {
		t.Fatalf("outermost deny rolled back %d intervals, want 16 (Theorem 5.1)", outerStats.RolledBack)
	}
	if innerStats.RolledBack != 1 {
		t.Fatalf("innermost deny rolled back %d intervals, want 1", innerStats.RolledBack)
	}
}

// TestE4bShapeCheckpointBoundsReplay: recovery after a late deny
// replays from the last checkpoint, not from the start of the window.
// The replayed-entry count is exact, so that half also runs under the
// race detector; the recovery-time ratio is E4b's cp_flatness.
func TestE4bShapeCheckpointBoundsReplay(t *testing.T) {
	const cpEvery = 32
	depths := []int{80, 272, 1040} // the E4b buckets: each 16 past a checkpoint
	best := map[int]time.Duration{}
	// Best of 5 as e4bHistoryRecovery, but depth by depth within each
	// round: five back-to-back tries of one depth span a millisecond,
	// and one GC cycle then slows them all.
	for try := 0; try < 5; try++ {
		for _, h := range depths {
			elapsed, replayed, err := historyRecovery(h, cpEvery)
			if err != nil {
				t.Fatal(err)
			}
			// 16 work steps since the checkpoint, the late guess and
			// the restore bookkeeping: the same at every depth.
			if replayed != 18 {
				t.Fatalf("history %d, checkpoint every %d: replayed %d entries, want 18", h, cpEvery, replayed)
			}
			if best[h] == 0 || elapsed < best[h] {
				best[h] = elapsed
			}
		}
	}
	for _, h := range depths {
		_, replayed, err := historyRecovery(h, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(h + 4); replayed != want {
			t.Fatalf("history %d, no checkpoints: replayed %d entries, want %d (the whole window)", h, replayed, want)
		}
	}
	if raceEnabled {
		return // the ratio below is wall-clock
	}
	deep, shallow := best[depths[len(depths)-1]], best[depths[0]]
	if flat := float64(deep) / float64(shallow); flat > 2 {
		t.Fatalf("cp_flatness = %.2fx (%v at depth %d vs %v at %d), want ≤ 2x: recovery cost grows with history",
			flat, deep, depths[len(depths)-1], shallow, depths[0])
	}
}

func TestE4RelaysJoinTheCascade(t *testing.T) {
	_, st, err := cascade(1, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	// 1 head interval + 4 relay implicit intervals.
	if st.RolledBack != 5 {
		t.Fatalf("rolled back %d, want 5 (transitive cascade)", st.RolledBack)
	}
}

func TestExperimentRunnersProduceTables(t *testing.T) {
	// Smoke: the cheap runners render non-empty tables without error.
	for _, e := range All() {
		switch e.ID {
		case "E2", "E4", "E5": // fast enough for the unit suite
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if !strings.Contains(buf.String(), "###") || !strings.Contains(buf.String(), "|") {
				t.Fatalf("%s produced no table:\n%s", e.ID, buf.String())
			}
		}
	}
}

func TestAllHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestE9ShapeLoopBoundsLog(t *testing.T) {
	spawnPeak, _, err := runAccumulator(400, false)
	if err != nil {
		t.Fatal(err)
	}
	loopPeak, _, err := runAccumulator(400, true)
	if err != nil {
		t.Fatal(err)
	}
	if spawnPeak < 400 {
		t.Fatalf("plain spawn peak log = %d, want ≥ message count", spawnPeak)
	}
	if loopPeak > 8 {
		t.Fatalf("loop peak log = %d, want bounded", loopPeak)
	}
}

func TestE10ShapePoolScales(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock shape assertion: skipped under the race detector")
	}
	trace := scenario.AccuracyTrace(12, 1.0, 5)
	one, err := echoMakespan(trace, 2*time.Millisecond, scenario.Optimistic, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := echoMakespan(trace, 2*time.Millisecond, scenario.Optimistic, 12)
	if err != nil {
		t.Fatal(err)
	}
	if float64(many) > 0.5*float64(one) {
		t.Fatalf("pool=12 (%v) should be well under half of pool=1 (%v)", many, one)
	}
}

// bestOf3 returns the largest of three measurements of a rate: on a
// shared machine interference only ever lowers a throughput, so the
// maximum is the least-disturbed run.
func bestOf3(rate func() float64) float64 {
	best := 0.0
	for try := 0; try < 3; try++ {
		if r := rate(); r > best {
			best = r
		}
	}
	return best
}

// TestE11ShapeEpochCacheSpeedup: revalidating a memoized verdict
// against the resolution epoch must stay well ahead of the locked
// transitive walk (5–10x measured at 64 procs; a bypassed cache is 1x).
func TestE11ShapeEpochCacheSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock shape assertion: skipped under the race detector")
	}
	ratio := bestOf3(func() float64 {
		fresh, cached := trackerScanRates(64, 16)
		return cached / fresh
	})
	if ratio < 3.5 {
		t.Fatalf("epoch-cached vs fresh classification at 64 procs: %.1fx, want ≥ 3.5x", ratio)
	}
}

// TestE11bShapeShardScaling: with one resolution per sweep, 64 shards
// leave ~63/64 of the cached verdicts valid where one shard
// invalidates them all (6–10x measured at 10k procs; 1x if sharding is
// off).
func TestE11bShapeShardScaling(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock shape assertion: skipped under the race detector")
	}
	rate := func(shards int) float64 {
		return bestOf3(func() float64 {
			r, _, _ := shardSweepRate(10_000, shards)
			return r
		})
	}
	one, many := rate(1), rate(64)
	if many/one < 3.3 {
		t.Fatalf("64 shards %.1f Mops/s vs 1 shard %.1f Mops/s at 10k procs: %.1fx, want ≥ 3.3x",
			many/1e6, one/1e6, many/one)
	}
}

// TestE15ShapeAdaptiveBeatsStatic: on a trace that is all-right then
// all-wrong, the adaptive controller must beat the better static policy
// (1.2–1.4x measured on this two-phase trace; a controller that never
// leaves always-on is ≤ 1.0x).
func TestE15ShapeAdaptiveBeatsStatic(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock shape assertion: skipped under the race detector")
	}
	const latency = 2 * time.Millisecond
	trace := e15Trace([]float64{1, 0}, 32)
	onT, err := runE15(trace, latency, nil)
	if err != nil {
		t.Fatal(err)
	}
	offT, err := runE15(trace, latency, policy.AlwaysOff(policy.Config{WaitBudget: 50 * latency}))
	if err != nil {
		t.Fatal(err)
	}
	// Best of three for the side under test only: a disturbed static run
	// can only flatter the ratio, a disturbed adaptive run fails it.
	adT := time.Duration(0)
	for try := 0; try < 3; try++ {
		d, err := runE15(trace, latency, e15Adaptive(latency))
		if err != nil {
			t.Fatal(err)
		}
		if adT == 0 || d < adT {
			adT = d
		}
	}
	bestStatic := onT
	if offT < bestStatic {
		bestStatic = offT
	}
	if ratio := float64(bestStatic) / float64(adT); ratio < 1.1 {
		t.Fatalf("adaptive %v vs always-on %v, always-off %v: %.2fx the better static, want ≥ 1.1x",
			adT, onT, offT, ratio)
	}
}

func TestTableRender(t *testing.T) {
	tb := newTable("E1: demo", "param", "value", "speedup")
	tb.AddRow(1, 2.5, speedup(10*time.Millisecond, 5*time.Millisecond))
	tb.AddRow("long-param-name", 10*time.Millisecond, speedup(time.Second, 0))
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"### E1: demo", "| param", "long-param-name", "2.50", "10ms", "2.00x", "∞"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	// Title, blank, header, separator, two rows.
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 6 {
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestConflictSchedule(t *testing.T) {
	sched := conflictSchedule(10_000, 0.15, 2)
	conflicts := 0
	for _, c := range sched {
		if c {
			conflicts++
		}
	}
	if ratio := float64(conflicts) / float64(len(sched)); ratio < 0.13 || ratio > 0.17 {
		t.Errorf("conflict rate = %.3f, want ≈0.15", ratio)
	}
}

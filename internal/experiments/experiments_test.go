package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"hope/internal/netsim"
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
	t.Logf("streamed/sync = %.2fx at 30%% overflow", float64(streamT)/float64(syncT))
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
	t.Logf("sync %.1f calls/s, streamed %.0f packets/s", sync.CallsPerSec, stream.PacketsPerSec)
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
	t.Logf("optimistic/sync = %.2fx at accuracy 1, %.2fx at accuracy 0",
		float64(fastT)/float64(syncT), float64(slowT)/float64(syncT0))
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
	t.Logf("peak log: spawn %d, loop %d", spawnPeak, loopPeak)
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
	t.Logf("pool=12/pool=1 = %.2fx", float64(many)/float64(one))
}

func TestTableRender(t *testing.T) {
	tb := newTable("E1: demo", "param", "value", "speedup")
	tb.AddRow(1, 2.5, speedup(10*time.Millisecond, 5*time.Millisecond))
	tb.AddRow("long-param-name", 10*time.Millisecond, speedup(time.Second, 0))
	tb.AddRow("µs", 100*time.Microsecond, "1.00x")
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"### E1: demo", "| param", "long-param-name", "2.50", "10ms", "2.00x", "∞", "| 100µs |"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	// Title, blank, header, separator, three rows.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 7 {
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	// Every row is as wide as the header, counted in runes: "µs" and
	// "∞" are one column each, though two and three bytes.
	for _, l := range lines[3:] {
		if utf8.RuneCountInString(l) != utf8.RuneCountInString(lines[2]) {
			t.Errorf("row %q is not as wide as the header %q:\n%s", l, lines[2], out)
		}
	}
}

// TestE2MatchesExperimentsMD: E2 runs in virtual time, so its tables are
// exact, and EXPERIMENTS.md carries them verbatim between the
// "hopebench E2" markers. An edit to a cell there, or a change to the
// simulator or the renderer, fails here until the block is regenerated
// from `go run ./cmd/hopebench -exp E2` (the lines between its "== E2"
// header and its timing line).
func TestE2MatchesExperimentsMD(t *testing.T) {
	const open, end = "<!-- hopebench E2 -->\n", "<!-- /hopebench E2 -->"
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(doc), open)
	if ok {
		block, _, ok = strings.Cut(block, end)
	}
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no %q … %q block", strings.TrimSpace(open), end)
	}
	var buf bytes.Buffer
	if err := E2LatencyArithmetic(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != block {
		gl, bl := strings.Split(got, "\n"), strings.Split(block, "\n")
		for i := 0; i < max(len(gl), len(bl)); i++ {
			var g, b string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(bl) {
				b = bl[i]
			}
			if g != b {
				t.Fatalf("EXPERIMENTS.md's E2 block differs from the rendered table at line %d:\n  rendered: %q\n  recorded: %q", i+1, g, b)
			}
		}
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

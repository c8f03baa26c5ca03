package experiments

import (
	"io"
	"time"

	"hope/internal/engine"
	"hope/internal/recovery"
)

// stableLatency models a slow stable-storage link, the latency optimistic
// checkpointing hides.
func stableLatency(d time.Duration) engine.LatencyFunc {
	return func(from, to string) time.Duration {
		if to == "stable" {
			return d
		}
		return 0
	}
}

// E8Recovery evaluates the related-work claim that HOPE subsumes
// optimistic message-logging recovery (§2): a ring of workers with
// asynchronous checkpoints and injected crashes. Two tables:
//
//   - E8a: failure-free cost — asynchronous (optimistic) vs synchronous
//     checkpointing as stable-storage latency grows. The optimistic gain
//     is the paper's motivating overlap.
//   - E8b: recovery cost — with one injected crash, the work lost grows
//     with the checkpoint interval (more rounds to re-execute), the
//     classic recovery trade-off.
func E8Recovery(w io.Writer) error {
	t := newTable("E8a: checkpointing overhead, crash-free (2 workers, 12 rounds, interval 1)",
		"stable latency", "sync ckpt", "optimistic ckpt", "speedup")
	for _, lat := range []time.Duration{500 * time.Microsecond, 2 * time.Millisecond, 8 * time.Millisecond} {
		cfg := recovery.Config{Workers: 2, Rounds: 12, CheckpointEvery: 1}
		st := time.Now()
		if _, err := recovery.Run(cfg, engine.WithOutput(io.Discard), engine.WithLatency(stableLatency(lat))); err != nil {
			return err
		}
		opt := time.Since(st)

		cfg.Sync = true
		st = time.Now()
		if _, err := recovery.Run(cfg, engine.WithOutput(io.Discard), engine.WithLatency(stableLatency(lat))); err != nil {
			return err
		}
		syncT := time.Since(st)
		t.AddRow(lat, syncT, opt, speedup(syncT, opt))
	}
	t.Render(w)

	t2 := newTable("E8b: recovery cost vs checkpoint interval (3 workers, 16 rounds, 1 crash)",
		"interval", "elapsed", "recoveries", "restarts", "checksums ok")
	for _, interval := range []int{1, 2, 4, 8} {
		cfg := recovery.Config{
			Workers:         3,
			Rounds:          16,
			CheckpointEvery: interval,
			Crashes:         map[int][]int{1: {2}},
		}
		want := recovery.Reference(cfg)
		st := time.Now()
		res, err := recovery.Run(cfg, engine.WithOutput(io.Discard), engine.WithLatency(stableLatency(2*time.Millisecond)))
		if err != nil {
			return err
		}
		elapsed := time.Since(st)
		ok := "yes"
		for i := range want {
			if res.Checksums[i] != want[i] {
				ok = "NO"
			}
		}
		rec, rst := 0, 0
		for i := range res.Recoveries {
			rec += res.Recoveries[i]
			rst += res.Restarts[i]
		}
		t2.AddRow(interval, elapsed, rec, rst, ok)
	}
	t2.Render(w)
	return nil
}

// Benchmarks: one per hopebench experiment table in EXPERIMENTS.md.
// They measure the same code paths the tables report, scaled to
// testing.B iterations with short latencies so `go test -bench=.` stays
// fast; run `go run ./cmd/hopebench` for the full tables. The guarded
// numbers are the repo's benchmark (go run ./benchmark).
package hope_test

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"hope"
	"hope/internal/check"
	"hope/internal/netsim"
	"hope/internal/occ"
	"hope/internal/recovery"
	"hope/internal/scenario"
	"hope/internal/semantics"
	"hope/internal/timewarp"
)

const benchLatency = 200 * time.Microsecond

func benchRT(b *testing.B, latency time.Duration) *hope.Runtime {
	b.Helper()
	pol := hope.Policy{Output: io.Discard}
	if latency > 0 {
		pol.Latency = func(from, to string) time.Duration { return latency }
	}
	rt := hope.New(hope.WithPolicy(pol))
	b.Cleanup(rt.Shutdown)
	return rt
}

// BenchmarkE1_CallStreaming regenerates the E1 table's three columns:
// the Figure-1 synchronous print workload and its Figure-2 streamed
// transformation under both server disciplines (accurate predictions).
func BenchmarkE1_CallStreaming(b *testing.B) {
	jobs := scenario.PrintJobs(8, scenario.PageSize, 0, 7)
	for _, m := range []struct {
		name string
		mode scenario.Mode
	}{{"sync", scenario.Sync}, {"optimistic", scenario.Optimistic}, {"ordered", scenario.Ordered}} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := scenario.Print(jobs, benchLatency, m.mode); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2_Netsim regenerates the §3.1 table's two regimes on the
// virtual-time simulator (no wall-clock latency: these measure simulator
// throughput).
func BenchmarkE2_Netsim(b *testing.B) {
	b.Run("sync-rpc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := netsim.NewSim(1)
			d := netsim.NewDuplex(s, 15*time.Millisecond, 100_000_000)
			netsim.SyncRPC(s, d, 100, 100, 100)
		}
	})
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := netsim.NewSim(1)
			l := netsim.NewLink(s, 15*time.Millisecond, 100_000_000)
			netsim.Stream(s, l, 100, 10_000)
		}
	})
}

// benchEcho issues b.N streamed echo calls at the optimistic server,
// in bounded chunks on fresh runtimes: a misprediction replays the
// caller's log since its session start, so one unbounded session would
// make the benchmark quadratic in b.N.
func benchEcho(b *testing.B, accuracy float64, latency time.Duration, verifiers int) {
	const chunk = 50
	for remaining := b.N; remaining > 0; remaining -= chunk {
		n := remaining
		if n > chunk {
			n = chunk
		}
		trace := scenario.AccuracyTrace(n, accuracy, 1)
		if _, err := scenario.Echo(trace, latency, scenario.Optimistic, verifiers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_Primitives measures the per-call cost of a streamed RPC at
// both prediction outcomes — the E3 table's two endpoints.
func BenchmarkE3_Primitives(b *testing.B) {
	b.Run("accurate", func(b *testing.B) { benchEcho(b, 1, 0, 0) })
	b.Run("mispredicted", func(b *testing.B) { benchEcho(b, 0, 0, 0) })
}

// BenchmarkE6_TimeWarp regenerates the E6 table's parallel-vs-sequential
// comparison at a small PHOLD size.
func BenchmarkE6_TimeWarp(b *testing.B) {
	cfg := timewarp.Config{LPs: 2, Population: 4, Horizon: 60, MaxDelta: 6, Seed: 42}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			timewarp.Sequential(cfg)
		}
	})
	b.Run("hope-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := timewarp.Parallel(cfg, hope.WithPolicy(hope.Policy{Output: io.Discard})); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE7_Replication regenerates the E7 table's two write paths,
// in bounded chunks on fresh runtimes (an unbounded optimistic session
// accumulates interval-chain algebra at the primary).
func BenchmarkE7_Replication(b *testing.B) {
	const chunk = 50
	for _, mode := range []string{"sync", "optimistic"} {
		b.Run(mode, func(b *testing.B) {
			remaining := b.N
			for remaining > 0 {
				n := remaining
				if n > chunk {
					n = chunk
				}
				remaining -= n
				rt := hope.New(hope.WithPolicy(hope.Policy{
					Output:  io.Discard,
					Latency: func(from, to string) time.Duration { return benchLatency },
				}))
				if err := occ.ServePrimary(rt, "primary", map[string]any{"k": 0}); err != nil {
					b.Fatal(err)
				}
				done := make(chan error, 1)
				if err := rt.Spawn("client", func(p *hope.Proc) error {
					s := occ.NewSession(p, "primary")
					for i := 0; i < n; i++ {
						if mode == "sync" {
							if err := s.WriteSync("k", i); err != nil {
								return err
							}
						} else {
							if _, err := s.WriteOptimistic("k", i); err != nil {
								return err
							}
						}
					}
					select {
					case done <- nil:
					default:
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				if err := <-done; err != nil {
					b.Fatal(err)
				}
				rt.Quiesce()
				rt.Shutdown()
				rt.Wait()
			}
		})
	}
}

// BenchmarkE8_Recovery regenerates the E8a comparison: one full ring run
// per iteration, optimistic vs synchronous checkpointing.
func BenchmarkE8_Recovery(b *testing.B) {
	lat := func(from, to string) time.Duration {
		if to == "stable" {
			return benchLatency
		}
		return 0
	}
	for _, mode := range []string{"sync", "optimistic"} {
		b.Run(mode, func(b *testing.B) {
			cfg := recovery.Config{Workers: 2, Rounds: 6, CheckpointEvery: 1, Sync: mode == "sync"}
			for i := 0; i < b.N; i++ {
				if _, err := recovery.Run(cfg, hope.WithPolicy(hope.Policy{Output: io.Discard, Latency: lat})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSemanticsFigure2 measures the abstract machine interpreting
// the paper's Figure 2 program (the T-series substrate).
func BenchmarkSemanticsFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := semantics.New(semantics.Figure2Program(60))
		if err != nil {
			b.Fatal(err)
		}
		m.Run(semantics.NewRandom(int64(i)), 10_000)
	}
}

// BenchmarkCheckExhaustive measures the model checker exploring a small
// program's full interleaving space (the T-series harness).
func BenchmarkCheckExhaustive(b *testing.B) {
	prog := semantics.ChainProgram(3, false)
	for i := 0; i < b.N; i++ {
		res := check.Exhaustive(prog, check.Options{MaxRuns: 2_000})
		if !res.Ok() {
			b.Fatal("violations found")
		}
	}
}

// BenchmarkE9_LoopCompaction regenerates the E9 ablation: a definite
// message stream through a plain body vs a compacting Loop.
func BenchmarkE9_LoopCompaction(b *testing.B) {
	for _, mode := range []string{"spawn", "loop"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt := benchRT(b, 0)
				recv := func(p *hope.Proc, sum *int) error {
					m, err := p.Recv()
					if err != nil {
						return err
					}
					v := m.Payload.(int)
					if v < 0 {
						return hope.ErrStopLoop
					}
					*sum += v
					return nil
				}
				var err error
				if mode == "loop" {
					err = hope.Loop(rt, "acc",
						func() *int { s := 0; return &s },
						func(s *int) *int { c := *s; return &c },
						func(p *hope.Proc, s *int) error { return recv(p, s) })
				} else {
					err = rt.Spawn("acc", func(p *hope.Proc) error {
						s := 0
						for {
							if e := recv(p, &s); e != nil {
								if errors.Is(e, hope.ErrStopLoop) {
									return nil
								}
								return e
							}
						}
					})
				}
				if err != nil {
					b.Fatal(err)
				}
				if err := rt.Spawn("src", func(p *hope.Proc) error {
					for j := 0; j < 200; j++ {
						if err := p.Send("acc", j); err != nil {
							return err
						}
					}
					return p.Send("acc", -1)
				}); err != nil {
					b.Fatal(err)
				}
				rt.Quiesce()
				rt.Shutdown()
				rt.Wait()
			}
		})
	}
}

// BenchmarkE10_VerifierPool regenerates the E10 ablation endpoints.
func BenchmarkE10_VerifierPool(b *testing.B) {
	for _, pool := range []int{1, 8} {
		b.Run(fmt.Sprintf("pool-%d", pool), func(b *testing.B) { benchEcho(b, 1, benchLatency, pool) })
	}
}

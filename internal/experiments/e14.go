package experiments

import (
	"fmt"
	"io"
	"time"

	"hope/internal/engine"
	"hope/internal/scenario"
)

// E14WireLatency measures what the wire transport costs: a message ring
// (each process forwards a token to the next, the first counts rounds)
// runs entirely inside one runtime, then with every hop crossing a
// loopback-TCP link between runtimes — the 2-node pair and the 3-node
// ring that internal/wire's distributed storm uses. The per-hop figures
// bound the §3.1 latency arithmetic's L term for cross-process
// deployments: in-proc hops cost a channel handoff, wire hops add
// framing, gob, and a kernel round trip. The ratio column is the
// headline: how much slower one hop gets when it leaves the process.
func E14WireLatency(w io.Writer) error {
	const rounds = 5000 // ≥ 10 000 hops per row: one hop is µs-scale, a row of 512 was mostly wake-up jitter

	t := newTable("E14: wire transport hop latency (loopback TCP vs in-process)",
		"topology", "procs", "hops", "elapsed", "per-hop", "vs in-proc")
	base := make(map[int]time.Duration) // ring size → in-proc per-hop
	for _, cfg := range []struct {
		name  string
		procs int
		wired bool
	}{
		{"in-proc pair", 2, false},
		{"wire 2-node pair", 2, true},
		{"in-proc ring3", 3, false},
		{"wire 3-node ring", 3, true},
	} {
		elapsed, err := runRing(cfg.procs, rounds, cfg.wired)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.name, err)
		}
		hops := cfg.procs * rounds
		perHop := elapsed / time.Duration(hops)
		ratio := "1.0x"
		if cfg.wired {
			ratio = fmt.Sprintf("%.1fx", float64(perHop)/float64(base[cfg.procs]))
		} else {
			base[cfg.procs] = perHop
		}
		// per-hop as text: AddRow would round a Duration to whole µs,
		// and an in-process hop is 1–2 µs.
		t.AddRow(cfg.name, cfg.procs, hops, elapsed, perHop.Round(100*time.Nanosecond).String(), ratio)
	}
	return render(w, t)
}

// runRing times `rounds` circuits of a token around a ring of procs —
// all in one runtime, or one runtime per proc joined by loopback TCP
// (scenario.RunNode per member: its clock starts once the member's
// links are up, so listener setup and dialing stay outside the window).
func runRing(procs, rounds int, wired bool) (time.Duration, error) {
	names := make([]string, procs)
	placement := make(map[string]uint32, procs)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i)
		placement[names[i]] = uint32(i)
	}
	body := func(i int) func(p *engine.Proc) error {
		next := names[(i+1)%procs]
		return func(p *engine.Proc) error {
			for r := 0; r < rounds; r++ {
				if i == 0 {
					if err := p.Send(next, r); err != nil {
						return err
					}
				}
				if _, err := p.Recv(); err != nil {
					return err
				}
				if i != 0 {
					if err := p.Send(next, r); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}

	if !wired {
		rt := engine.New(engine.WithOutput(io.Discard))
		defer rt.Shutdown()
		// r0, the only process that sends before it receives, goes
		// last: its first token must find r1 registered
		// (ErrUnknownDest is not retried, and the ring would hang).
		for i := procs - 1; i >= 0; i-- {
			if err := rt.Spawn(names[i], body(i)); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		for _, err := range rt.Wait() {
			if err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}

	return scenario.Loopback(procs, func(mesh scenario.NodeConfig) (time.Duration, error) {
		mesh.Procs = placement
		return scenario.RunNode(mesh, func(rt *engine.Runtime) error {
			return rt.Spawn(names[mesh.Node], body(mesh.Node))
		})
	})
}

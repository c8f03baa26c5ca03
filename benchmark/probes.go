package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	"hope/internal/engine"
	"hope/internal/ids"
	"hope/internal/sets"
	"hope/internal/tracker"
	"hope/internal/vclock"
	"hope/internal/wire"
)

// Probes time the layers no body can put a span around — tracker, sets,
// the wire codec, vclock — and a few engine paths in isolation, by
// calling their public functions directly with inputs shaped like the
// workloads'. A run repeats each probe probeReps times; the report
// summarises the repetitions.
const probeReps = 5

// cost is what one timed batch cost per operation.
type cost struct{ ns, allocs, bytes float64 }

// timed runs a batch of n operations and prices one.
func timed(n int, batch func()) cost {
	m0, t0 := memNow(), now()
	batch()
	t1, m1 := now(), memNow()
	return cost{
		ns:     float64(t1-t0) / float64(n),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
	}
}

// runProbes fills s with every probe-backed per-layer metric: reps
// repetitions of each probe, and the rpc probe over rpcJobs print jobs.
func runProbes(s samples, seed int64, reps, rpcJobs int) error {
	for rep := 0; rep < reps; rep++ {
		if err := probeEngine(s); err != nil {
			return fmt.Errorf("engine probe: %w", err)
		}
		if err := probeTracker(s); err != nil {
			return fmt.Errorf("tracker probe: %w", err)
		}
		probeSets(s)
		probeVClock(s)
		if err := probeCodec(s); err != nil {
			return fmt.Errorf("wire codec probe: %w", err)
		}
		if err := probeHop(s); err != nil {
			return fmt.Errorf("wire hop probe: %w", err)
		}
	}
	return probeRPC(s, seed, rpcJobs)
}

// waitErr joins a finished runtime's process errors.
func waitErr(rt *engine.Runtime) error { return errors.Join(rt.Wait()...) }

func probeEngine(s samples) error {
	// One-way streams between two processes, no speculation: what a
	// message costs through Send → queue → Recv, log appends included.
	// Streams are short because a receiver's cost per message grows
	// with its backlog (README.md), and on one P the whole stream is
	// the backlog.
	const msgs, streams = 128, 16
	rt := engine.New(engine.WithOutput(io.Discard))
	var err error
	c := timed(msgs*streams, func() {
		for k := 0; k < streams && err == nil; k++ {
			rx, tx := fmt.Sprintf("rx%d", k), fmt.Sprintf("tx%d", k)
			if err = rt.Spawn(rx, func(p *engine.Proc) error {
				for i := 0; i < msgs; i++ {
					if _, err := p.Recv(); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return
			}
			if err = rt.Spawn(tx, func(p *engine.Proc) error {
				for i := 0; i < msgs; i++ {
					if err := p.Send(rx, i); err != nil {
						return err
					}
				}
				return nil
			}); err == nil {
				err = waitErr(rt)
			}
		}
	})
	rt.Shutdown()
	if err != nil {
		return err
	}
	s.add("engine.deliver_ns_per_msg", c.ns)
	s.add("engine.deliver_allocs_per_msg", c.allocs)
	s.add("engine.deliver_bytes_per_msg", c.bytes)

	// An explicit guess affirmed by its own process: the cheapest full
	// speculation cycle.
	const guesses = 5000
	rt = engine.New(engine.WithOutput(io.Discard))
	c = timed(guesses, func() {
		if err = rt.Spawn("g", func(p *engine.Proc) error {
			for i := 0; i < guesses; i++ {
				x := p.NewAID()
				p.Guess(x)
				if err := p.Affirm(x); err != nil {
					return err
				}
			}
			return nil
		}); err == nil {
			err = waitErr(rt)
		}
	})
	rt.Shutdown()
	if err != nil {
		return err
	}
	s.add("engine.guess_affirm_ns", c.ns)
	s.add("engine.guess_affirm_allocs", c.allocs)

	const procs = 200
	rt = engine.New(engine.WithOutput(io.Discard))
	c = timed(procs, func() {
		for i := 0; i < procs && err == nil; i++ {
			err = rt.Spawn(fmt.Sprintf("p%d", i), func(*engine.Proc) error { return nil })
		}
	})
	if err == nil {
		err = waitErr(rt)
	}
	rt.Shutdown()
	s.add("engine.spawn_ns", c.ns)
	return err
}

type noHooks struct{}

func (noHooks) NotifyRollback() {}

func probeTracker(s samples) error {
	const n = 2000
	tr := tracker.New()
	judge := tr.Register(noHooks{})
	procs := make([]ids.Proc, n)
	xs := make([]ids.AID, n)
	fresh := func() {
		for i := range xs {
			xs[i] = tr.NewAID()
		}
	}
	for i := range procs {
		procs[i] = tr.Register(noHooks{})
	}
	var err error
	each := func(op func(i int) error) func() {
		return func() {
			for i := 0; i < n && err == nil; i++ {
				err = op(i)
			}
		}
	}
	guess := each(func(i int) error { _, err := tr.Guess(procs[i], xs[i], 0); return err })

	// n processes at depth 0 each guess their own assumption; a definite
	// judge affirms them all, then denies a second round.
	fresh()
	c := timed(n, guess)
	s.add("tracker.guess_ns", c.ns)
	s.add("tracker.guess_allocs", c.allocs)
	c = timed(n, each(func(i int) error { return tr.Affirm(judge, xs[i]) }))
	s.add("tracker.affirm_ns", c.ns)
	s.add("tracker.affirm_allocs", c.allocs)
	fresh()
	guess()
	c = timed(n, each(func(i int) error { return tr.Deny(judge, xs[i]) }))
	s.add("tracker.deny_ns", c.ns)
	for _, p := range procs {
		tr.TakePending(p)
	}

	// Delivering a message tagged by one speculative sender, and
	// classifying its tag set with a current memo and without one.
	sender := tr.Register(noHooks{})
	if err == nil {
		_, err = tr.Guess(sender, tr.NewAID(), 0)
	}
	if err != nil {
		return err
	}
	tags, err := tr.Tag(sender)
	if err != nil {
		return err
	}
	c = timed(n, each(func(i int) error { _, err := tr.Deliver(procs[i], tags, 0); return err }))
	s.add("tracker.deliver_ns", c.ns)
	var memo tracker.TagClass
	tr.ClassifyCached(tags, &memo)
	c = timed(50*n, func() {
		for i := 0; i < 50*n; i++ {
			tr.ClassifyCached(tags, &memo)
		}
	})
	s.add("tracker.classify_warm_ns", c.ns)
	c = timed(n, func() {
		for i := 0; i < n; i++ {
			tr.Settled(tags)
		}
	})
	s.add("tracker.classify_cold_ns", c.ns)

	// The 65th nested guess of a process already 64 guesses deep.
	const deep, depth = 50, 64
	chains := make([]ids.Proc, deep)
	for i := range chains {
		chains[i] = tr.Register(noHooks{})
		for d := 0; d < depth && err == nil; d++ {
			_, err = tr.Guess(chains[i], tr.NewAID(), d)
		}
	}
	c = timed(deep, func() {
		for i := 0; i < deep && err == nil; i++ {
			_, err = tr.Guess(chains[i], tr.NewAID(), depth)
		}
	})
	s.add("tracker.guess_depth64_ns", c.ns)
	return err
}

func probeSets(s samples) {
	const n, rounds = 64, 2000
	c := timed(n*rounds, func() {
		for r := 0; r < rounds; r++ {
			set := sets.New[ids.AID]()
			for i := 0; i < n; i++ {
				set.Add(ids.AID(i + 1))
			}
		}
	})
	s.add("sets.add_ns", c.ns)
	a, b := sets.New[ids.AID](), sets.New[ids.AID]()
	for i := 0; i < n; i++ {
		a.Add(ids.AID(i + 1))
		b.Add(ids.AID(i + 1 + n/2))
	}
	c = timed(rounds, func() {
		for r := 0; r < rounds; r++ {
			a.Range(func(ids.AID) bool { return true })
		}
	})
	s.add("sets.range_ns_n64", c.ns)
	s.add("sets.range_allocs_n64", c.allocs)
	c = timed(rounds, func() {
		for r := 0; r < rounds; r++ {
			a.Union(b)
		}
	})
	s.add("sets.union_ns_n64", c.ns)
}

// probeVClock prices one merge of two 3-entry clocks.
func probeVClock(s samples) {
	const rounds = 2000
	va, vb := vclock.New(), vclock.New()
	for i, p := range []string{"node0", "node1", "node2"} {
		for k := 0; k <= i; k++ {
			va.Tick(p)
			vb.Tick(p)
		}
		vb.Tick(p)
	}
	c := timed(rounds, func() {
		for r := 0; r < rounds; r++ {
			m := va.Clone()
			m.Merge(vb)
		}
	})
	s.add("vclock.merge_ns_n3", c.ns)
}

// frameHeader is the fixed wire frame header (see wire/codec.go).
const frameHeader = 8

func probeCodec(s samples) error {
	// The storm's claim payload in a Msg frame with one tag and a
	// two-entry clock: what every storm_wire2 claim looks like.
	const n = 2000
	claim := stormClaim{W: 1, J: 123}
	var err error
	var payload []byte
	c := timed(n, func() {
		for i := 0; i < n && err == nil; i++ {
			payload, err = wire.EncodePayload(claim)
		}
	})
	s.add("wire.encode_payload_ns", c.ns)
	s.add("wire.encode_payload_allocs", c.allocs)
	c = timed(n, func() {
		for i := 0; i < n && err == nil; i++ {
			_, err = wire.DecodePayload(payload)
		}
	})
	s.add("wire.decode_payload_ns", c.ns)
	s.add("wire.decode_payload_allocs", c.allocs)
	msg := wire.Msg{
		From: "worker1", To: "judge", Seq: 4711,
		Tags:    []ids.AID{ids.AID(1<<48 | 99)},
		VClock:  []wire.ClockEntry{{Node: 0, Seq: 4711}, {Node: 1, Seq: 4700}},
		Payload: payload,
	}
	var frame []byte
	c = timed(n, func() {
		for i := 0; i < n && err == nil; i++ {
			frame, err = wire.AppendFrame(nil, msg)
		}
	})
	s.add("wire.append_frame_ns", c.ns)
	if err != nil {
		return err
	}
	s.add("wire.frame_bytes", float64(len(frame)))
	c = timed(n, func() {
		for i := 0; i < n && err == nil; i++ {
			_, err = wire.DecodeBody(wire.FrameMsg, frame[frameHeader:])
		}
	})
	s.add("wire.decode_body_ns", c.ns)
	return err
}

// probeHop bounces a token between two runtimes joined by loopback TCP
// and prices one hop as half a round trip; bringing the mesh up and
// holding the termination barrier are priced on the way.
func probeHop(s samples) error {
	const rounds = 400
	in, err := newCluster(2, map[string]uint32{"ping": 0, "pong": 1}, nil)
	if err != nil {
		return err
	}
	defer in.close()
	rtt := make([]int64, 0, rounds)
	if err := in.rts[1].Spawn("pong", func(p *engine.Proc) error {
		for i := 0; i < rounds; i++ {
			if _, err := p.Recv(); err != nil {
				return err
			}
			if err := p.Send("ping", i); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	t0 := now()
	if err := in.startMesh(nil); err != nil {
		return err
	}
	s.add("wire.mesh_start_ms", float64(now()-t0)/1e6)
	if err := in.rts[0].Spawn("ping", func(p *engine.Proc) error {
		for i := 0; i < rounds; i++ {
			t0 := now()
			if err := p.Send("pong", i); err != nil {
				return err
			}
			if _, err := p.Recv(); err != nil {
				return err
			}
			//hopelint:ignore capture -- timing probe; nothing speculates here, so the body never replays
			rtt = append(rtt, now()-t0) //hopevet:ignore escape -- timing probe; the body never replays
		}
		return nil
	}); err != nil {
		return err
	}
	if err := in.waitAll(nil); err != nil {
		return err
	}
	t0 = now()
	if err := in.barrier(5 * time.Second); err != nil {
		return err
	}
	s.add("wire.barrier_ms", float64(now()-t0)/1e6)
	s.add("wire.hop_ns_p50", quantileNs(rtt, 0.5)/2)
	s.add("wire.hop_ns_p99", quantileNs(rtt, 0.99)/2)
	return in.close()
}

// probeRPC runs the callstream jobs once streamed and once through
// synchronous calls: the §7 comparison.
func probeRPC(s samples, seed int64, jobs int) error {
	var makespan [2]time.Duration
	for i, synchronous := range []bool{false, true} {
		wl := callWorkload("rpc-probe", jobs, synchronous)
		ep, res := runEpisode(wl, seed, true, 10*time.Second)
		if res.err != nil {
			return res.err
		}
		for _, t := range ep.tracers {
			var dur []int64
			for _, sp := range t.spans {
				if sp.kind == spStreamCall || sp.kind == spCall {
					dur = append(dur, sp.end-sp.start)
				}
			}
			if len(dur) > 0 {
				s.add([]string{"rpc.streamcall_ns_p50", "rpc.call_ns_p50"}[i], quantileNs(dur, 0.5))
			}
		}
		makespan[i] = res.makespan
	}
	s.add("rpc.stream_vs_sync_speedup", ratio(makespan[1].Seconds(), makespan[0].Seconds()))
	return nil
}

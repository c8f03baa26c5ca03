package scenario

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"hope/internal/engine"
	"hope/internal/fault"
	"hope/internal/obs"
	"hope/internal/wire"
)

// This file distributes the storm across engine.Runtimes joined by
// internal/wire — either several runtimes inside one test process
// (StormWire) or one runtime per OS process (StormNode, driven by
// cmd/hopenode and the multi-process soak). The committed output is the
// same sorted result lines Storm prints from a single runtime: the
// headline oracle compares them byte for byte.

// StormPlacement assigns the storm's processes to nodes: workers round-
// robin, the judge and sink on distinct nodes when the cluster is big
// enough. With 3 nodes: node0={worker0,worker3}, node1={worker1,judge},
// node2={worker2,sink} — every claim, result, and ack crosses the wire.
func StormPlacement(nodes int) map[string]uint32 {
	if nodes <= 0 {
		nodes = 1
	}
	procs := make(map[string]uint32, stormWorkers+2)
	for w := 0; w < stormWorkers; w++ {
		procs[fmt.Sprintf("worker%d", w)] = uint32(w % nodes)
	}
	procs["judge"] = uint32(1 % nodes)
	procs["sink"] = uint32(2 % nodes)
	return procs
}

// StormPlans derives node i's fault plans from one storm seed: an
// engine-level plan (crash/stall — the in-runtime fault classes) and a
// wire-level plan (drop/dup/delay at the socket layer). Distinct Plan
// values because per-site counters are part of a plan's schedule; the
// two may share a seed safely — engine sites ("crash/…", "stall/…") and
// wire sites ("drop/…", "dup/…", "delay/…") are disjoint decision
// streams. Offsetting the seed per node keeps the node plans
// independent while the whole cluster's schedule stays a pure function
// of (seed, node).
func StormPlans(seed int64, node int) (eng, wirePlan *fault.Plan) {
	s := seed + int64(node)*1000003
	eng = fault.New(fault.Config{
		Seed:  s,
		Crash: 0.02, MaxCrashes: 2,
		Stall: 0.2, MaxStall: 200 * time.Microsecond,
	})
	wirePlan = fault.New(fault.Config{
		Seed: s,
		Drop: 0.15, Dup: 0.15,
		Delay: 0.25, MaxDelay: 200 * time.Microsecond,
	})
	return eng, wirePlan
}

// StormNodeConfig configures one member of a distributed storm.
type StormNodeConfig struct {
	// Node is this member's index in [0, Nodes); Nodes is the cluster
	// size. The node runs exactly the storm processes StormPlacement
	// assigns it.
	Node, Nodes int
	// Jobs is the per-worker job count (the storm's scale knob).
	Jobs int
	// Listen / Listener / Peers configure the wire mesh (wire.Config).
	Listen   string
	Listener net.Listener
	Peers    map[uint32]string
	// Engine optionally injects crash/stall faults into this runtime;
	// Wire optionally injects drop/dup/delay at the socket layer. See
	// StormPlans.
	Engine, Wire *fault.Plan
	// Out receives the committed output. Only the sink's node writes;
	// default io.Discard.
	Out io.Writer
	// Obs optionally observes the runtime and the wire peers.
	Obs *obs.Observer
	// DialTimeout bounds peer dialing (default 10s; raise for slow
	// process launches).
	DialTimeout time.Duration
	// CheckpointEvery enables periodic checkpoints (engine
	// WithCheckpointEvery) so injected crashes recover incrementally.
	CheckpointEvery int
}

// StormNode runs one node's share of the distributed storm to
// completion: spawn the locally-placed processes, join the mesh, drain
// the runtime, and hold the termination barrier until every peer
// drained too (verdicts flush before the barrier's Done on each FIFO
// link). It returns once the whole cluster is finished.
func StormNode(cfg StormNodeConfig) (Result, error) {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 8
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	total := stormWorkers * cfg.Jobs
	placement := StormPlacement(cfg.Nodes)
	me := uint32(cfg.Node)
	wire.RegisterPayload(stormClaim{})

	rtOpts := []engine.Option{
		engine.WithOutput(out),
		engine.WithAIDBase(uint64(cfg.Node) << 48),
		engine.WithObserver(cfg.Obs),
	}
	if cfg.Engine != nil {
		rtOpts = append(rtOpts, engine.WithFaults(cfg.Engine))
	}
	if cfg.CheckpointEvery > 0 {
		rtOpts = append(rtOpts, engine.WithCheckpointEvery(cfg.CheckpointEvery))
	}
	rt := engine.New(rtOpts...)
	defer rt.Shutdown()

	node, err := wire.NewNode(rt, wire.Config{
		ID:          me,
		Listen:      cfg.Listen,
		Listener:    cfg.Listener,
		Peers:       cfg.Peers,
		Procs:       placement,
		Faults:      cfg.Wire,
		Obs:         cfg.Obs,
		DialTimeout: cfg.DialTimeout,
	})
	if err != nil {
		return Result{}, err
	}
	defer node.Close()

	// Local processes exist before the mesh comes up, so nothing a peer
	// sends can ever race a spawn — and receivers before senders, so
	// nothing a local worker sends can either.
	if placement["sink"] == me {
		if err := spawnStormSink(rt, total); err != nil {
			return Result{}, err
		}
	}
	if placement["judge"] == me {
		if err := spawnStormJudge(rt, total); err != nil {
			return Result{}, err
		}
	}
	for w := 0; w < stormWorkers; w++ {
		if placement[fmt.Sprintf("worker%d", w)] != me {
			continue
		}
		if err := spawnStormWorker(rt, w, cfg.Jobs); err != nil {
			return Result{}, err
		}
	}

	start := time.Now()
	if err := node.Start(); err != nil {
		return Result{}, err
	}
	for _, werr := range rt.Wait() {
		if werr != nil {
			return Result{}, fmt.Errorf("node %d: %w", cfg.Node, werr)
		}
	}
	if err := node.Barrier(time.Minute); err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)
	if err := node.Close(); err != nil {
		return Result{}, fmt.Errorf("node %d transport: %w", cfg.Node, err)
	}
	return Result{
		Elapsed: elapsed,
		Note:    fmt.Sprintf("node %d/%d: %d jobs settled cluster-wide", cfg.Node, cfg.Nodes, total),
	}, nil
}

// StormWire runs the distributed storm with 3 runtimes over loopback
// TCP inside this process — the wire transport exercised end to end
// without the multi-process harness. Options apply to every runtime
// (an attached observer sees all three, including the wire peers
// table).
func StormWire(jobs int, opts ...engine.Option) (Result, error) {
	return stormWire(jobs, 0, io.Discard, opts...)
}

// stormWire is StormWire with a fault seed (0 = fault-free; otherwise
// StormPlans per node) and a committed-output writer for the sink's
// node — the in-process byte-identical oracle uses both.
func stormWire(jobs int, seed int64, out io.Writer, opts ...engine.Option) (Result, error) {
	if jobs <= 0 {
		jobs = 8
	}
	const nodes = 3
	total := stormWorkers * jobs
	placement := StormPlacement(nodes)
	wire.RegisterPayload(stormClaim{})

	listeners := make([]net.Listener, nodes)
	addrs := make(map[uint32]string, nodes)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return Result{}, err
		}
		defer ln.Close()
		listeners[i] = ln
		addrs[uint32(i)] = ln.Addr().String()
	}

	rts := make([]*engine.Runtime, nodes)
	wnodes := make([]*wire.Node, nodes)
	defer func() {
		for _, n := range wnodes {
			if n != nil {
				n.Close()
			}
		}
		for _, rt := range rts {
			if rt != nil {
				rt.Shutdown()
			}
		}
	}()
	for i := 0; i < nodes; i++ {
		nodeOut := io.Writer(io.Discard)
		if placement["sink"] == uint32(i) {
			nodeOut = out
		}
		var engPlan, wirePlan *fault.Plan
		if seed != 0 {
			engPlan, wirePlan = StormPlans(seed, i)
		}
		rtOpts := append([]engine.Option{engine.WithAIDBase(uint64(i) << 48)}, opts...)
		rtOpts = append(rtOpts, engine.WithOutput(nodeOut))
		if engPlan != nil {
			rtOpts = append(rtOpts, engine.WithFaults(engPlan), engine.WithCheckpointEvery(8))
		}
		rt := engine.New(rtOpts...)
		rts[i] = rt

		peers := make(map[uint32]string, nodes-1)
		for j := uint32(0); j < nodes; j++ {
			if j != uint32(i) {
				peers[j] = addrs[j]
			}
		}
		node, err := wire.NewNode(rt, wire.Config{
			ID:       uint32(i),
			Listener: listeners[i],
			Peers:    peers,
			Procs:    placement,
			Faults:   wirePlan,
			Obs:      rt.Observer(),
		})
		if err != nil {
			return Result{}, err
		}
		wnodes[i] = node

		// Receivers before senders, as in StormNode.
		if placement["sink"] == uint32(i) {
			if err := spawnStormSink(rt, total); err != nil {
				return Result{}, err
			}
		}
		if placement["judge"] == uint32(i) {
			if err := spawnStormJudge(rt, total); err != nil {
				return Result{}, err
			}
		}
		for w := 0; w < stormWorkers; w++ {
			if placement[fmt.Sprintf("worker%d", w)] != uint32(i) {
				continue
			}
			if err := spawnStormWorker(rt, w, jobs); err != nil {
				return Result{}, err
			}
		}
	}

	start := time.Now()
	for i, node := range wnodes {
		if err := node.Start(); err != nil {
			return Result{}, fmt.Errorf("node %d start: %w", i, err)
		}
	}
	// Drain and barrier concurrently: each barrier releases only when
	// every node announced Done, so sequential waiting would deadlock.
	errCh := make(chan error, nodes)
	for i := range rts {
		go func(i int) {
			for _, err := range rts[i].Wait() {
				if err != nil {
					errCh <- fmt.Errorf("node %d: %w", i, err)
					return
				}
			}
			errCh <- wnodes[i].Barrier(time.Minute)
		}(i)
	}
	var errs []error
	for range rts {
		if err := <-errCh; err != nil {
			errs = append(errs, err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)
	for i, node := range wnodes {
		if err := node.Close(); err != nil {
			return Result{}, fmt.Errorf("node %d transport: %w", i, err)
		}
	}
	return Result{
		Elapsed: elapsed,
		Note:    fmt.Sprintf("%d jobs settled across %d nodes (%d denied)", total, nodes, jobs),
	}, nil
}

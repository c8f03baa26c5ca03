package scenario

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"hope/internal/engine"
	"hope/internal/fault"
	"hope/internal/wire"
)

// This file joins engine.Runtimes by internal/wire: RunNode is the one
// per-node runner, Loopback runs several of them inside one process
// over loopback TCP, and the distributed storm is their first client —
// one runtime per OS process (StormNode, driven by cmd/hopenode and the
// multi-process soak) or three in this process (StormWire). The storm's
// committed output is the same sorted result lines Storm prints from a
// single runtime: the headline oracle compares them byte for byte.

// StormPlacement assigns the storm's processes to nodes: workers round-
// robin, the judge and sink on distinct nodes when the cluster is big
// enough. With 3 nodes: node0={worker0,worker3}, node1={worker1,judge},
// node2={worker2,sink} — every claim, result, and ack crosses the wire
// except on worker1↔judge and worker2→sink, which stay inside a runtime.
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

// StormPlan derives node i's fault plan from one storm seed: crashes
// and stalls of the processes it hosts, and drops, dups and delays of
// every message they send, to a process on the same node or across the
// wire. Offsetting the seed per node keeps the node plans independent
// while the whole cluster's schedule stays a pure function of (seed,
// node).
func StormPlan(seed int64, node int) *fault.Plan {
	return fault.New(fault.Config{
		Seed:  seed + int64(node)*1000003,
		Crash: 0.02, MaxCrashes: 2,
		Drop: 0.15, Dup: 0.15,
		Delay: 0.25, MaxDelay: 200 * time.Microsecond,
		Stall: 0.2, MaxStall: 200 * time.Microsecond,
	})
}

// NodeConfig places one runtime in a wire cluster.
type NodeConfig struct {
	// Node is this member's index: its wire ID and its AID namespace.
	Node int
	// Listen / Listener / Peers / Procs configure the mesh (wire.Config):
	// where to listen (or a pre-bound listener), every other node's dial
	// address, and the cluster-wide process placement.
	Listen   string
	Listener net.Listener
	Peers    map[uint32]string
	Procs    map[string]uint32
	// DialTimeout bounds peer dialing (default 10s; raise for slow
	// process launches).
	DialTimeout time.Duration
}

// RunNode runs one member of a wire cluster to completion: build the
// runtime (opts apply on top of a discarded output and the node's AID
// base; an attached observer also receives the wire peers table), let
// spawn create the locally-placed processes, join the mesh, drain the
// runtime, and hold the termination barrier until every peer drained
// too (verdicts flush before the barrier's Done on each FIFO link). The
// returned makespan starts once this node's links are up — listener
// setup and dialing are excluded — and ends when the barrier releases.
func RunNode(cfg NodeConfig, spawn func(rt *engine.Runtime) error, opts ...engine.Option) (time.Duration, error) {
	rt := engine.New(append([]engine.Option{
		engine.WithOutput(io.Discard),
		engine.WithAIDBase(uint64(cfg.Node) << 48),
	}, opts...)...)
	defer rt.Shutdown()

	node, err := wire.NewNode(rt, wire.Config{
		ID:          uint32(cfg.Node),
		Listen:      cfg.Listen,
		Listener:    cfg.Listener,
		Peers:       cfg.Peers,
		Procs:       cfg.Procs,
		Obs:         rt.Observer(),
		DialTimeout: cfg.DialTimeout,
	})
	if err != nil {
		return 0, err
	}
	defer node.Close()

	// Local processes exist before the mesh comes up, so nothing a peer
	// sends can ever race a spawn; their own remote sends park in the
	// router until Start returns.
	if err := spawn(rt); err != nil {
		return 0, err
	}
	if err := node.Start(); err != nil {
		return 0, fmt.Errorf("node %d start: %w", cfg.Node, err)
	}
	start := time.Now()
	for _, werr := range rt.Wait() {
		if werr != nil {
			return 0, fmt.Errorf("node %d: %w", cfg.Node, werr)
		}
	}
	if err := node.Barrier(time.Minute); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	if err := node.Close(); err != nil {
		return 0, fmt.Errorf("node %d transport: %w", cfg.Node, err)
	}
	return elapsed, nil
}

// Loopback runs an n-node cluster inside this process: it binds n
// loopback-TCP listeners, hands member i its place in the mesh (Node,
// Listener, Peers — the member fills in the rest and calls RunNode),
// and runs the members concurrently, since each barrier releases only
// when every node announced Done. The mesh tolerates any start order:
// a listener accepts from the moment its node's Start runs, and dials
// retry until then. Returns the slowest member's makespan.
func Loopback(n int, member func(mesh NodeConfig) (time.Duration, error)) (time.Duration, error) {
	listeners := make([]net.Listener, n)
	addrs := make(map[uint32]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer ln.Close()
		listeners[i] = ln
		addrs[uint32(i)] = ln.Addr().String()
	}

	type outcome struct {
		elapsed time.Duration
		err     error
	}
	done := make(chan outcome, n)
	for i := 0; i < n; i++ {
		peers := make(map[uint32]string, n-1)
		for j, addr := range addrs {
			if j != uint32(i) {
				peers[j] = addr
			}
		}
		go func(mesh NodeConfig) {
			elapsed, err := member(mesh)
			done <- outcome{elapsed, err}
		}(NodeConfig{Node: i, Listener: listeners[i], Peers: peers})
	}
	var slowest time.Duration
	var errs []error
	for i := 0; i < n; i++ {
		o := <-done
		if o.err != nil {
			errs = append(errs, o.err)
		}
		if o.elapsed > slowest {
			slowest = o.elapsed
		}
	}
	return slowest, errors.Join(errs...)
}

// StormNode runs one node's share of the distributed storm — exactly
// the processes StormPlacement(nodes) assigns to mesh.Node, `jobs` jobs
// per worker — and returns once the whole cluster is finished. Only the
// sink's node writes committed output (to the engine.WithOutput in
// opts); mesh.Procs is filled in here.
func StormNode(mesh NodeConfig, nodes, jobs int, opts ...engine.Option) (Result, error) {
	if jobs <= 0 {
		jobs = 8
	}
	if nodes <= 0 {
		nodes = 1
	}
	total := stormWorkers * jobs
	me := uint32(mesh.Node)
	mesh.Procs = StormPlacement(nodes)
	wire.RegisterPayload(stormClaim{})

	elapsed, err := RunNode(mesh, func(rt *engine.Runtime) error {
		if mesh.Procs["sink"] == me {
			if err := spawnStormSink(rt, total); err != nil {
				return err
			}
		}
		if mesh.Procs["judge"] == me {
			if err := spawnStormJudge(rt, total); err != nil {
				return err
			}
		}
		for w := 0; w < stormWorkers; w++ {
			if mesh.Procs[fmt.Sprintf("worker%d", w)] != me {
				continue
			}
			if err := spawnStormWorker(rt, w, jobs); err != nil {
				return err
			}
		}
		return nil
	}, opts...)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Elapsed: elapsed,
		Note:    fmt.Sprintf("node %d/%d: %d jobs settled cluster-wide", mesh.Node, nodes, total),
	}, nil
}

// StormWire runs the distributed storm with 3 runtimes over loopback
// TCP inside this process — the wire transport exercised end to end
// without the multi-process harness. Options apply to every runtime
// (an attached observer sees all three, including the wire peers
// table; an output writer receives the sink node's lines).
func StormWire(jobs int, opts ...engine.Option) (Result, error) {
	return stormWire(jobs, nil, opts...)
}

// stormWire is StormWire with per-node fault plans (nil = fault-free;
// otherwise plans[i] faults node i, checkpointing every 8 so injected
// crashes recover incrementally) — the in-process byte-identical oracle.
func stormWire(jobs int, plans []*fault.Plan, opts ...engine.Option) (Result, error) {
	if jobs <= 0 {
		jobs = 8
	}
	const nodes = 3
	elapsed, err := Loopback(nodes, func(mesh NodeConfig) (time.Duration, error) {
		nodeOpts := opts
		if plans != nil {
			// Capacity-capped: members run concurrently and must not
			// append into one shared backing array.
			nodeOpts = append(opts[:len(opts):len(opts)],
				engine.WithFaults(plans[mesh.Node]), engine.WithCheckpointEvery(8))
		}
		res, err := StormNode(mesh, nodes, jobs, nodeOpts...)
		return res.Elapsed, err
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Elapsed: elapsed,
		Note:    fmt.Sprintf("%d jobs settled across %d nodes (%d denied)", stormWorkers*jobs, nodes, jobs),
	}, nil
}

// Command hopenode runs one member of a distributed HOPE storm: an
// engine.Runtime joined to its peers over loopback (or LAN) TCP by
// internal/wire, executing the share of the storm workload that
// scenario.StormPlacement assigns to this node. Start one hopenode per
// node index; the cluster drains, holds the termination barrier, and
// exits. The sink's node prints the committed output — run the same
// cluster under any fault seed and the bytes must not change.
//
// A three-node cluster on one machine:
//
//	hopenode -node 0 -nodes 3 -listen 127.0.0.1:7100 -peers 1=127.0.0.1:7101,2=127.0.0.1:7102 &
//	hopenode -node 1 -nodes 3 -listen 127.0.0.1:7101 -peers 0=127.0.0.1:7100,2=127.0.0.1:7102 &
//	hopenode -node 2 -nodes 3 -listen 127.0.0.1:7102 -peers 0=127.0.0.1:7100,1=127.0.0.1:7101
//
// Node 2 hosts the sink (see StormPlacement) and prints the settled
// results. Add -seed N to every node to arm the per-node fault plans:
// each runtime crashes and stalls its processes and drops, duplicates
// and delays every message they send, whether the destination is on the
// same node or across the wire. The committed output is byte-identical
// regardless.
//
// Harnesses that pre-bind the listener pass it as a file descriptor
// (-listen-fd 3 with the socket in ExtraFiles), so children never race
// for ports; the multi-process soak in internal/scenario does exactly
// this.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"hope/internal/engine"
	"hope/internal/fault"
	"hope/internal/obs"
	"hope/internal/scenario"
)

func main() {
	var (
		node     = flag.Int("node", 0, "this node's index in [0, nodes)")
		nodes    = flag.Int("nodes", 3, "cluster size")
		listen   = flag.String("listen", "", "TCP address to listen on")
		listenFD = flag.Int("listen-fd", -1, "inherit a pre-bound listener from this file descriptor instead of -listen")
		peersStr = flag.String("peers", "", "peer addresses: id=host:port,id=host:port")
		jobs     = flag.Int("scale", 8, "jobs per storm worker")
		seed     = flag.Int64("seed", 0, "fault seed: derive this node's plan, which faults every message its processes send, same-node or cross-node (0 = fault-free)")
		dialTO   = flag.Duration("dial-timeout", 30*time.Second, "peer dial budget (peers may start in any order)")
		jsonOut  = flag.String("json", "", "write the observer snapshot (runtime + wire peers) as JSON")
	)
	flag.Parse()
	if err := run(*node, *nodes, *jobs, *seed, *listen, *listenFD, *peersStr, *dialTO, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "hopenode: %v\n", err)
		os.Exit(1)
	}
}

func run(node, nodes, jobs int, seed int64, listen string, listenFD int, peersStr string, dialTO time.Duration, jsonOut string) error {
	if node < 0 || node >= nodes {
		return fmt.Errorf("-node %d out of range [0, %d)", node, nodes)
	}
	peers, err := parsePeers(peersStr)
	if err != nil {
		return err
	}
	var ln net.Listener
	if listenFD >= 0 {
		ln, err = net.FileListener(os.NewFile(uintptr(listenFD), "listen-fd"))
		if err != nil {
			return fmt.Errorf("inherit listener fd %d: %w", listenFD, err)
		}
	}

	var plan *fault.Plan
	if seed != 0 {
		plan = scenario.StormPlan(seed, node)
	}
	o := obs.New()
	res, err := scenario.StormNode(scenario.NodeConfig{
		Node: node, Listen: listen, Listener: ln, Peers: peers, DialTimeout: dialTO,
	}, nodes, jobs,
		engine.WithOutput(os.Stdout), engine.WithObserver(o),
		engine.WithFaults(plan), engine.WithCheckpointEvery(8))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hopenode: %s in %v (injected=%d)\n",
		res.Note, res.Elapsed.Round(time.Millisecond), plan.Total())
	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		if err := o.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// parsePeers parses "1=127.0.0.1:7101,2=127.0.0.1:7102".
func parsePeers(spec string) (map[uint32]string, error) {
	peers := make(map[uint32]string)
	if spec == "" {
		return peers, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad -peers entry %q, want id=host:port", kv)
		}
		id, err := strconv.ParseUint(k, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %w", k, err)
		}
		peers[uint32(id)] = v
	}
	return peers, nil
}

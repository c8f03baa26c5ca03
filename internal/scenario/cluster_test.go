package scenario

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hope/internal/engine"
	"hope/internal/fault"
	"hope/internal/obs"
	"hope/internal/testutil"
)

// TestMain doubles as the multi-process storm's node entry point: when
// HOPE_STORM_NODE is set, this test binary is a re-exec'd cluster
// member (see TestStormMultiProcessSoak), not a test run.
func TestMain(m *testing.M) {
	if os.Getenv("HOPE_STORM_NODE") != "" {
		os.Exit(stormNodeMain())
	}
	os.Exit(m.Run())
}

// stormNodeMain runs one node of the distributed storm inside a
// re-exec'd test binary. The listener arrives pre-bound as fd 3 (the
// parent binds all ports, so children never race for them), the rest of
// the configuration in the environment. Committed output goes to
// stdout; the injected-fault count to stderr for the parent to sum.
func stormNodeMain() int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "storm node: %v\n", err)
		return 1
	}
	node, err := strconv.Atoi(os.Getenv("HOPE_STORM_NODE"))
	if err != nil {
		return fail(fmt.Errorf("HOPE_STORM_NODE: %w", err))
	}
	nodes, err := strconv.Atoi(os.Getenv("HOPE_STORM_NODES"))
	if err != nil {
		return fail(fmt.Errorf("HOPE_STORM_NODES: %w", err))
	}
	jobs, err := strconv.Atoi(os.Getenv("HOPE_STORM_JOBS"))
	if err != nil {
		return fail(fmt.Errorf("HOPE_STORM_JOBS: %w", err))
	}
	seed, err := strconv.ParseInt(os.Getenv("HOPE_STORM_SEED"), 10, 64)
	if err != nil {
		return fail(fmt.Errorf("HOPE_STORM_SEED: %w", err))
	}
	peers := make(map[uint32]string)
	if spec := os.Getenv("HOPE_STORM_PEERS"); spec != "" {
		for _, kv := range strings.Split(spec, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fail(fmt.Errorf("bad peer spec %q", kv))
			}
			id, err := strconv.ParseUint(k, 10, 32)
			if err != nil {
				return fail(fmt.Errorf("bad peer id %q: %w", k, err))
			}
			peers[uint32(id)] = v
		}
	}
	ln, err := net.FileListener(os.NewFile(3, "storm-listener"))
	if err != nil {
		return fail(fmt.Errorf("inherit listener fd 3: %w", err))
	}

	var plan *fault.Plan
	if seed != 0 {
		plan = StormPlan(seed, node)
	}
	o := obs.New()
	if _, err := StormNode(NodeConfig{
		Node: node, Listener: ln, Peers: peers, DialTimeout: 30 * time.Second,
	}, nodes, jobs,
		engine.WithOutput(os.Stdout), engine.WithObserver(o),
		engine.WithFaults(plan), engine.WithCheckpointEvery(8)); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "injected=%d\n", plan.Total())
	if dir := os.Getenv("HOPE_STORM_OBS_DIR"); dir != "" {
		path := filepath.Join(dir, fmt.Sprintf("storm-seed%d-node%d.json", seed, node))
		f, err := os.Create(path)
		if err != nil {
			return fail(err)
		}
		if err := o.WriteJSON(f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}
	return 0
}

// TestStormWireMatchesSingleProcess is the in-process half of the
// distributed oracle: the 3-runtime loopback-TCP storm commits exactly
// the bytes the single-runtime storm does, fault-free and under per-node
// fault plans. Summed over the seeds, those plans must have faulted a
// message on a link inside one runtime and on one that crosses the
// wire: each node's plan decides every message its processes send.
func TestStormWireMatchesSingleProcess(t *testing.T) {
	const jobs = 8
	want := runStorm(t, jobs)
	if want == "" {
		t.Fatal("single-process Storm produced no output")
	}
	seeds := []int64{0, 1, 2, 3, 4, 5, 6, 7}
	if testing.Short() {
		seeds = []int64{0, 1, 2}
	}
	placement := StormPlacement(3)
	faulted := map[bool]int{} // same-node link? → message faults
	for _, seed := range seeds {
		var plans []*fault.Plan
		if seed != 0 {
			plans = []*fault.Plan{StormPlan(seed, 0), StormPlan(seed, 1), StormPlan(seed, 2)}
		}
		buf := &testutil.SyncBuffer{}
		if _, err := stormWire(jobs, plans, engine.WithOutput(buf)); err != nil {
			t.Fatalf("stormWire seed %d: %v", seed, err)
		}
		if got := buf.String(); got != want {
			t.Fatalf("seed %d: wire output diverged from single-process run\nwant:\n%s\ngot:\n%s", seed, want, got)
		}
		for _, plan := range plans {
			for _, inj := range plan.Injections() {
				switch inj.Kind {
				case fault.Drop, fault.Dup, fault.Delay:
					_, link, _ := strings.Cut(inj.Site, "/")
					from, to, _ := strings.Cut(link, "→")
					faulted[placement[from] == placement[to]]++
				}
			}
		}
	}
	if faulted[true] == 0 || faulted[false] == 0 {
		t.Fatalf("message faults: %d on same-node links, %d on cross-node links; want both non-zero", faulted[true], faulted[false])
	}
	t.Logf("message faults: %d on same-node links, %d on cross-node links", faulted[true], faulted[false])
}

// runStormCluster launches one full 3-OS-process storm and returns the
// sink node's committed stdout plus the total faults injected across
// the cluster. It returns errors rather than failing t because the soak
// calls it from worker goroutines.
func runStormCluster(exe string, seed int64, jobs int) (string, int64, error) {
	const nodes = 3
	listeners := make([]*net.TCPListener, nodes)
	addrs := make([]string, nodes)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", 0, err
		}
		listeners[i] = ln.(*net.TCPListener)
		addrs[i] = ln.Addr().String()
	}

	cmds := make([]*exec.Cmd, nodes)
	outs := make([]bytes.Buffer, nodes)
	errBufs := make([]bytes.Buffer, nodes)
	killAll := func() {
		for _, cmd := range cmds {
			if cmd != nil && cmd.Process != nil {
				cmd.Process.Kill()
			}
		}
	}
	for i := 0; i < nodes; i++ {
		var peers []string
		for j := 0; j < nodes; j++ {
			if j != i {
				peers = append(peers, fmt.Sprintf("%d=%s", j, addrs[j]))
			}
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("HOPE_STORM_NODE=%d", i),
			fmt.Sprintf("HOPE_STORM_NODES=%d", nodes),
			fmt.Sprintf("HOPE_STORM_JOBS=%d", jobs),
			fmt.Sprintf("HOPE_STORM_SEED=%d", seed),
			"HOPE_STORM_PEERS="+strings.Join(peers, ","),
		)
		lf, err := listeners[i].File()
		if err != nil {
			killAll()
			return "", 0, err
		}
		cmd.ExtraFiles = []*os.File{lf} // becomes fd 3 in the child
		cmd.Stdout = &outs[i]
		cmd.Stderr = &errBufs[i]
		if err := cmd.Start(); err != nil {
			lf.Close()
			killAll()
			return "", 0, fmt.Errorf("start node %d: %w", i, err)
		}
		// The child holds its own dup of the socket; drop the parent's.
		lf.Close()
		listeners[i].Close()
		cmds[i] = cmd
	}

	done := make(chan error, nodes)
	for i, cmd := range cmds {
		go func(i int, cmd *exec.Cmd) {
			err := cmd.Wait()
			if err != nil {
				err = fmt.Errorf("node %d: %v\nstderr:\n%s", i, err, errBufs[i].String())
			}
			done <- err
		}(i, cmd)
	}
	deadline := time.After(2 * time.Minute)
	for range cmds {
		select {
		case err := <-done:
			if err != nil {
				killAll()
				return "", 0, err
			}
		case <-deadline:
			killAll()
			return "", 0, fmt.Errorf("seed %d: cluster did not finish within 2m", seed)
		}
	}

	var injected int64
	for i := range errBufs {
		for _, line := range strings.Split(errBufs[i].String(), "\n") {
			if v, ok := strings.CutPrefix(line, "injected="); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return "", 0, fmt.Errorf("node %d: bad injected count %q", i, v)
				}
				injected += n
			}
		}
	}
	sinkNode := StormPlacement(nodes)["sink"]
	return outs[sinkNode].String(), injected, nil
}

// TestStormMultiProcessSoak is the headline oracle across OS process
// boundaries: for every seed, three hopenode-style processes joined
// only by TCP — each runtime crashing and stalling its processes and
// dropping, duplicating and delaying every message they send — commit
// output byte-identical to the single-process, fault-free storm.
func TestStormMultiProcessSoak(t *testing.T) {
	const jobs = 8
	want := runStorm(t, jobs)
	if want == "" {
		t.Fatal("single-process Storm produced no output")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	seeds := 32
	if testing.Short() {
		seeds = 4
	}

	var injected atomic.Int64
	var wg sync.WaitGroup
	sem := make(chan struct{}, 4) // clusters in flight: 4×3 processes
	for seed := 1; seed <= seeds; seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			got, n, err := runStormCluster(exe, seed, jobs)
			if err != nil {
				t.Errorf("seed %d: %v", seed, err)
				return
			}
			injected.Add(n)
			if got != want {
				t.Errorf("seed %d: committed output diverged across process boundary\nwant:\n%s\ngot:\n%s", seed, want, got)
			}
		}(int64(seed))
	}
	wg.Wait()
	if injected.Load() == 0 {
		t.Fatal("soak injected no faults — the oracle checked nothing")
	}
	t.Logf("%d seeds × 3 OS processes, %d faults injected, output stable", seeds, injected.Load())
}

// TestLoopbackRetiresUnmintedOnPeer carries an un-minted AID across the
// wire. Node 0's worker guesses X and, in the guessed branch, mints and
// guesses Y, sends node 1's echo a message tagged {X, Y} — node 1
// materializes both — and denies X once the echo's reply shows the tag
// arrived. The rollback's cut un-mints Y; its deny reaches node 1 like
// any verdict, so after the barrier neither tracker holds a record.
func TestLoopbackRetiresUnmintedOnPeer(t *testing.T) {
	procs := map[string]uint32{"worker": 0, "echo": 1}
	rts := make([]*engine.Runtime, 2)
	_, err := Loopback(2, func(mesh NodeConfig) (time.Duration, error) {
		mesh.Procs = procs
		return RunNode(mesh, func(rt *engine.Runtime) error {
			rts[mesh.Node] = rt
			if mesh.Node == 1 {
				return rt.Spawn("echo", func(p *engine.Proc) error {
					for {
						m, err := p.Recv()
						if err != nil || m.Payload == "done" {
							return err
						}
						if err := p.Send("worker", "ack"); err != nil {
							return err
						}
					}
				})
			}
			return rt.Spawn("worker", func(p *engine.Proc) error {
				x := p.NewAID()
				if p.Guess(x) {
					p.Guess(p.NewAID())
					if err := p.Send("echo", "tagged"); err != nil {
						return err
					}
					if _, err := p.Recv(); err != nil {
						return err
					}
					return p.Deny(x)
				}
				return p.Send("echo", "done")
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, rt := range rts {
		if dump := rt.DebugTracker(); dump != "" {
			t.Errorf("node %d holds speculative state after the barrier:\n%s", i, dump)
		}
	}
}

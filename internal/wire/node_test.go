package wire

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"hope/internal/engine"
	"hope/internal/fault"
	"hope/internal/obs"
	"hope/internal/testutil"
)

// cluster is a test harness: N runtimes joined by loopback-TCP nodes
// inside one test process.
type cluster struct {
	rts   []*engine.Runtime
	nodes []*Node
	bufs  []*testutil.SyncBuffer
}

// newCluster builds n runtimes with their wire nodes, placement, and
// pre-bound loopback listeners, but does not Start the mesh — spawn
// local procs first, then call start. faults(i), when given, is runtime
// i's fault plan: it decides every message that runtime's processes
// send, across the wire included.
func newCluster(t *testing.T, n int, procs map[string]uint32, faults func(i int) *fault.Plan, obsv func(i int) *obs.Observer) *cluster {
	t.Helper()
	c := &cluster{}
	cfgs := make([]Config, n)
	addrs := make(map[uint32]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = Config{ID: uint32(i), Listener: ln, Procs: procs}
		addrs[uint32(i)] = ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		cfgs[i].Peers = make(map[uint32]string, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				cfgs[i].Peers[uint32(j)] = addrs[uint32(j)]
			}
		}
		var plan *fault.Plan
		if faults != nil {
			plan = faults(i)
		}
		var o *obs.Observer
		if obsv != nil {
			o = obsv(i)
		}
		cfgs[i].Obs = o
		buf := &testutil.SyncBuffer{}
		rt := engine.New(engine.WithOutput(buf), engine.WithAIDBase(uint64(i)<<48),
			engine.WithObserver(o), engine.WithFaults(plan))
		node, err := NewNode(rt, cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		c.rts = append(c.rts, rt)
		c.nodes = append(c.nodes, node)
		c.bufs = append(c.bufs, buf)
	}
	t.Cleanup(func() {
		for _, node := range c.nodes {
			node.Close()
		}
		for _, rt := range c.rts {
			rt.Shutdown()
		}
	})
	return c
}

func (c *cluster) start(t *testing.T) {
	t.Helper()
	for i, node := range c.nodes {
		if err := node.Start(); err != nil {
			t.Fatalf("node %d start: %v", i, err)
		}
	}
}

// wait drains every runtime and runs the cluster termination barrier.
func (c *cluster) wait(t *testing.T) {
	t.Helper()
	done := make(chan error, len(c.rts))
	for i := range c.rts {
		go func(i int) {
			for _, err := range c.rts[i].Wait() {
				done <- fmt.Errorf("node %d: %w", i, err)
				return
			}
			done <- c.nodes[i].Barrier(10 * time.Second)
		}(i)
	}
	for range c.rts {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("cluster wait timed out")
		}
	}
}

func TestCrossProcessAffirm(t *testing.T) {
	procs := map[string]uint32{"guesser": 0, "consumer": 1}
	c := newCluster(t, 2, procs, nil, nil)

	if err := c.rts[0].Spawn("guesser", func(p *engine.Proc) error {
		x := p.NewAID()
		if !p.Guess(x) {
			return errors.New("fresh guess should be optimistic")
		}
		if err := p.Send("consumer", "speculative hello"); err != nil {
			return err
		}
		return p.Affirm(x)
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.rts[1].Spawn("consumer", func(p *engine.Proc) error {
		m, err := p.RecvSettled()
		if err != nil {
			return err
		}
		p.Printf("%v\n", m.Payload)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	c.start(t)
	c.wait(t)

	if got := c.bufs[1].String(); got != "speculative hello\n" {
		t.Fatalf("consumer output = %q", got)
	}
}

// TestCrossProcessDenyRollsBack is the tentpole semantics check in
// miniature: a guess made in runtime 0 taints a message consumed by
// runtime 1; the deny in runtime 0 crosses the wire and orphans it, and
// only the pessimistic resend commits.
func TestCrossProcessDenyRollsBack(t *testing.T) {
	procs := map[string]uint32{"guesser": 0, "decider": 0, "consumer": 1}
	c := newCluster(t, 2, procs, nil, nil)

	aidCh := make(chan engine.AID, 1)
	if err := c.rts[0].Spawn("guesser", func(p *engine.Proc) error {
		x := p.NewAID()
		if p.Guess(x) {
			// Optimistic branch: the send is tagged with x, so the
			// consumer in the other OS process speculates on our guess.
			// The deny rolls this whole branch back; re-execution takes
			// the pessimistic branch below.
			if err := p.Send("consumer", "speculative"); err != nil {
				return err
			}
			aidCh <- x
			return nil
		}
		return p.Send("consumer", "final")
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.rts[0].Spawn("decider", func(p *engine.Proc) error {
		return p.Deny(<-aidCh)
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.rts[1].Spawn("consumer", func(p *engine.Proc) error {
		m, err := p.RecvSettled()
		if err != nil {
			return err
		}
		p.Printf("%v\n", m.Payload)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	c.start(t)
	c.wait(t)

	if got := c.bufs[1].String(); got != "final\n" {
		t.Fatalf("consumer committed %q, want only the pessimistic resend", got)
	}
}

// TestWireDropSurfacesAsErrDelivery: a drop the sender's plan injects on
// a cross-node link surfaces from Send as the same retryable ErrDelivery
// a local injected drop does.
func TestWireDropSurfacesAsErrDelivery(t *testing.T) {
	procs := map[string]uint32{"tx": 0, "rx": 1}
	drops := func(i int) *fault.Plan {
		if i == 0 {
			return fault.New(fault.Config{Seed: 1, Drop: 1})
		}
		return nil
	}
	c := newCluster(t, 2, procs, drops, nil)

	errCh := make(chan error, 1)
	if err := c.rts[0].Spawn("tx", func(p *engine.Proc) error {
		errCh <- p.Send("rx", "doomed")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.rts[1].Spawn("rx", func(p *engine.Proc) error {
		return nil // nothing will arrive
	}); err != nil {
		t.Fatal(err)
	}

	c.start(t)
	if err := <-errCh; !errors.Is(err, engine.ErrDelivery) {
		t.Fatalf("Send under wire drop=1: got %v, want ErrDelivery", err)
	}
	c.wait(t)
}

// TestRuntimePlanFaultsCrossTheWire: the plan attached to the sending
// runtime duplicates and delays messages whose destination is on another
// node, exactly as it would a local one. Every copy reaches the receiver
// and is suppressed by its per-link filter, and the delays stretch the
// link without reordering it.
func TestRuntimePlanFaultsCrossTheWire(t *testing.T) {
	const msgs = 20
	plan := fault.New(fault.Config{Seed: 1, Dup: 1, Delay: 1, MaxDelay: 50 * time.Microsecond})
	observers := make([]*obs.Observer, 2)
	c := newCluster(t, 2, map[string]uint32{"tx": 0, "rx": 1},
		func(i int) *fault.Plan {
			if i == 0 {
				return plan
			}
			return nil
		},
		func(i int) *obs.Observer { observers[i] = obs.New(); return observers[i] })
	spawn(t, c.rts[0], "tx", func(p *engine.Proc) error {
		for i := 0; i < msgs; i++ {
			if err := p.Send("rx", i); err != nil {
				return err
			}
		}
		return nil
	})
	spawn(t, c.rts[1], "rx", func(p *engine.Proc) error {
		for i := 0; i < msgs; i++ {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			p.Printf("%v\n", m.Payload)
		}
		return nil
	})
	c.start(t)
	c.wait(t)
	c.noErrs(t)
	var want strings.Builder
	for i := 0; i < msgs; i++ {
		fmt.Fprintf(&want, "%d\n", i)
	}
	if got := c.bufs[1].String(); got != want.String() {
		t.Fatalf("receiver committed %q, want %q", got, want.String())
	}
	counts := plan.Counts()
	if counts[fault.Dup] != msgs || counts[fault.Delay] != msgs {
		t.Fatalf("plan injected %d dups and %d delays, want %d of each", counts[fault.Dup], counts[fault.Delay], msgs)
	}
	if n := observers[1].Metrics().DupSuppressed.Load(); n != msgs {
		t.Fatalf("receiver suppressed %d duplicates, want %d", n, msgs)
	}
}

// TestLostPeerSurfacesAsErrDelivery: after the remote node goes away,
// sends to it degrade to ErrDelivery instead of wedging the sender.
func TestLostPeerSurfacesAsErrDelivery(t *testing.T) {
	procs := map[string]uint32{"tx": 0, "rx": 1}
	c := newCluster(t, 2, procs, nil, nil)

	lost := make(chan struct{})
	errCh := make(chan error, 1)
	if err := c.rts[0].Spawn("tx", func(p *engine.Proc) error {
		<-lost
		// TCP needs a write or two to observe the reset; each failed
		// attempt must surface as retryable ErrDelivery, never wedge.
		for i := 0; i < 400; i++ {
			if err := p.Send("rx", i); err != nil {
				errCh <- err
				return nil
			}
			time.Sleep(5 * time.Millisecond)
		}
		errCh <- errors.New("sends kept succeeding after peer loss")
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	c.start(t)
	c.nodes[1].Close()
	c.rts[1].Shutdown()
	close(lost)

	if err := <-errCh; !errors.Is(err, engine.ErrDelivery) {
		t.Fatalf("Send after peer loss: got %v, want ErrDelivery", err)
	}
	c.rts[0].Wait()
}

// TestWireMetrics: the per-peer obs counters see the traffic.
func TestWireMetrics(t *testing.T) {
	procs := map[string]uint32{"a": 0, "b": 1}
	observers := make([]*obs.Observer, 2)
	c := newCluster(t, 2, procs, nil, func(i int) *obs.Observer {
		observers[i] = obs.New()
		return observers[i]
	})

	if err := c.rts[0].Spawn("a", func(p *engine.Proc) error {
		x := p.NewAID()
		p.Guess(x)
		for i := 0; i < 10; i++ {
			var v any = i
			if i == 5 {
				v = make([]byte, 3*linkBuf) // a frame too big for the writer's batch
			}
			if err := p.Send("b", v); err != nil {
				return err
			}
		}
		return p.Affirm(x)
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.rts[1].Spawn("b", func(p *engine.Proc) error {
		for i := 0; i < 10; i++ {
			if _, err := p.RecvSettled(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	c.start(t)
	c.wait(t)

	// Batching must not blur the per-frame counters: the sender counts
	// each frame it wrote with that frame's length, so its totals equal
	// what the receiver — which sizes frames one at a time as it parses
	// them — counted on the other end of the link.
	for i, frames := range []int64{
		1 + 10 + 1 + 1, // hello, 10 msgs, 1 verdict, done
		1 + 1,          // hello, done
	} {
		out := linkStat(t, observers[i], fmt.Sprintf("→node%d", 1-i))
		in := linkStat(t, observers[1-i], fmt.Sprintf("←node%d", i))
		if out.FramesOut != frames {
			t.Errorf("node %d frames out = %d, want %d", i, out.FramesOut, frames)
		}
		if out.FramesOut != in.FramesIn || out.BytesOut != in.BytesIn {
			t.Errorf("node %d wrote %d frames / %d bytes, node %d read %d / %d",
				i, out.FramesOut, out.BytesOut, 1-i, in.FramesIn, in.BytesIn)
		}
	}
	if fanout := observers[0].Snapshot().Metrics.WireVerdictFanout; fanout != 1 {
		t.Fatalf("verdict fanout = %d, want 1", fanout)
	}
}

package wire

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"hope/internal/engine"
	"hope/internal/fault"
	"hope/internal/obs"
)

// Payload types of the stream tests.
type (
	streamA struct{ Sender, N int }
	streamB struct {
		Sender, N int
		Note      string
	}
	streamC struct {
		Sender, N int
		Vals      []int
	}
	// streamBox is registered but can hold anything, including a type
	// that is not: the encode then fails partway through the segment.
	streamBox struct {
		N     int
		Inner any
	}
	// streamWrap nests inside a Box.
	streamWrap         struct{ Inner any }
	streamUnregistered struct{ X int }
	// streamClaim has the shape of the benchmark's stormClaim.
	streamClaim struct {
		W, J int
		X    engine.AID
	}
)

func init() {
	RegisterPayload(streamA{})
	RegisterPayload(streamB{})
	RegisterPayload(streamC{})
	RegisterPayload(streamBox{})
	RegisterPayload(streamWrap{})
	RegisterPayload(streamClaim{})
}

func spawn(t *testing.T, rt *engine.Runtime, name string, body func(p *engine.Proc) error) {
	t.Helper()
	if err := rt.Spawn(name, body); err != nil {
		t.Fatal(err)
	}
}

// waitRuntime is rt.Wait with the harness's patience: a link that broke
// under test leaves a receiver parked forever.
func waitRuntime(t *testing.T, rt *engine.Runtime) []error {
	t.Helper()
	done := make(chan []error, 1)
	go func() { done <- rt.Wait() }()
	select {
	case errs := <-done:
		return errs
	case <-time.After(15 * time.Second):
		t.Fatal("runtime did not finish")
		return nil
	}
}

// noErrs fails the test if any node recorded a transport error.
func (c *cluster) noErrs(t *testing.T) {
	t.Helper()
	for i, node := range c.nodes {
		if err := node.Err(); err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
}

// linkStat returns one per-link counter row of an observer.
func linkStat(t *testing.T, o *obs.Observer, peer string) obs.WirePeerStat {
	t.Helper()
	for _, ps := range o.WirePeers() {
		if ps.Peer == peer {
			return ps
		}
	}
	t.Fatalf("no wire peer %q in %+v", peer, o.WirePeers())
	return obs.WirePeerStat{}
}

// TestStreamDupOnFirstUseOfType: with every message duplicated, the
// first message of a struct type, after one of another type, is itself
// duplicated. The copy is a second router call, a second encode under
// the same Seq, so the receiver decodes both, delivers one, and
// delivers the next hundred in order.
func TestStreamDupOnFirstUseOfType(t *testing.T) {
	const msgs = 101
	observers := make([]*obs.Observer, 2)
	c := newCluster(t, 2, map[string]uint32{"tx": 0, "rx": 1},
		func(i int) *fault.Plan {
			if i == 0 {
				return fault.New(fault.Config{Seed: 3, Dup: 1})
			}
			return nil
		},
		func(i int) *obs.Observer { observers[i] = obs.New(); return observers[i] })
	spawn(t, c.rts[0], "tx", func(p *engine.Proc) error {
		if err := p.Send("rx", "opens the stream"); err != nil {
			return err
		}
		for i := 0; i < msgs; i++ {
			if err := p.Send("rx", streamB{Sender: 0, N: i, Note: "dup"}); err != nil {
				return err
			}
		}
		return nil
	})
	spawn(t, c.rts[1], "rx", func(p *engine.Proc) error {
		if _, err := p.Recv(); err != nil {
			return err
		}
		for i := 0; i < msgs; i++ {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			if got, ok := m.Payload.(streamB); !ok || got.N != i {
				return fmt.Errorf("message %d is %#v: a duplicate leaked or a message was lost", i, m.Payload)
			}
		}
		return nil
	})
	c.start(t)
	c.wait(t)
	c.noErrs(t)
	if in := linkStat(t, observers[1], "←node0"); in.Redeliveries != msgs+1 {
		t.Fatalf("receiver saw %d redeliveries, want %d (every message duplicated on the wire)", in.Redeliveries, msgs+1)
	}
}

// TestStreamSurvivesEncodeError: a payload that cannot be encoded fails
// its own Send, synchronously (the engine ends the sending process with
// the error), and costs the link nothing — including when the failure
// comes after part of the segment was written.
func TestStreamSurvivesEncodeError(t *testing.T) {
	bads := []any{
		// First, so that the link's first sight of Box and Wrap is a
		// failed encode.
		streamBox{N: 1, Inner: streamWrap{streamUnregistered{1}}},
		streamBox{N: 2, Inner: streamUnregistered{2}},
		streamUnregistered{3},
	}
	procs := map[string]uint32{"good": 0, "rx": 1}
	for i := range bads {
		procs[fmt.Sprintf("bad%d", i)] = 0
	}
	c := newCluster(t, 2, procs, nil, nil)
	// No body speculates, so none replays: the channels are safe.
	start, died := make([]chan struct{}, len(bads)), make([]chan struct{}, len(bads))
	for i, bad := range bads {
		i, bad := i, bad
		start[i], died[i] = make(chan struct{}), make(chan struct{})
		spawn(t, c.rts[0], fmt.Sprintf("bad%d", i), func(p *engine.Proc) error {
			<-start[i]
			defer close(died[i])
			err := p.Send("rx", bad)
			return fmt.Errorf("Send(%#v) came back with %v; it should have ended the process", bad, err)
		})
	}
	spawn(t, c.rts[0], "good", func(p *engine.Proc) error {
		if err := p.Send("rx", 0); err != nil {
			return err
		}
		for i := range bads {
			close(start[i])
			<-died[i]
			if err := p.Send("rx", streamBox{N: 10, Inner: streamWrap{"ok"}}); err != nil {
				return err
			}
		}
		return nil
	})
	spawn(t, c.rts[1], "rx", func(p *engine.Proc) error {
		for i := 0; i <= len(bads); i++ {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			p.Printf("%v\n", m.Payload)
		}
		return nil
	})
	c.start(t)
	errs := waitRuntime(t, c.rts[0])
	if len(errs) != len(bads) {
		t.Fatalf("sender runtime finished with %v, want one encode error per bad payload", errs)
	}
	for _, err := range errs {
		if !strings.Contains(err.Error(), "wire: encode") {
			t.Fatalf("sender process ended with %v, want the encode error", err)
		}
	}
	if errs := waitRuntime(t, c.rts[1]); len(errs) > 0 {
		t.Fatal(errs)
	}
	c.noErrs(t)
	want := "0\n" + strings.Repeat("{10 {ok}}\n", len(bads))
	if got := c.bufs[1].String(); got != want {
		t.Fatalf("receiver committed %q, want %q", got, want)
	}
}

// TestStreamConcurrentSenders: several processes share one link and
// race to send three payload types on it. Every message decodes, and
// each sender's messages arrive in the order it sent them.
func TestStreamConcurrentSenders(t *testing.T) {
	const senders, each = 4, 200
	procs := map[string]uint32{"rx": 1}
	for s := 0; s < senders; s++ {
		procs[fmt.Sprintf("tx%d", s)] = 0
	}
	c := newCluster(t, 2, procs, nil, nil)
	for s := 0; s < senders; s++ {
		s := s
		spawn(t, c.rts[0], fmt.Sprintf("tx%d", s), func(p *engine.Proc) error {
			for i := 0; i < each; i++ {
				var v any
				switch (i + s) % 3 {
				case 0:
					v = streamA{Sender: s, N: i}
				case 1:
					v = streamB{Sender: s, N: i, Note: "b"}
				default:
					v = streamC{Sender: s, N: i, Vals: []int{i, s}}
				}
				if err := p.Send("rx", v); err != nil {
					return err
				}
			}
			return nil
		})
	}
	spawn(t, c.rts[1], "rx", func(p *engine.Proc) error {
		next := make([]int, senders)
		for i := 0; i < senders*each; i++ {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			var s, n int
			switch v := m.Payload.(type) {
			case streamA:
				s, n = v.Sender, v.N
			case streamB:
				s, n = v.Sender, v.N
			case streamC:
				s, n = v.Sender, v.N
			default:
				return fmt.Errorf("unexpected payload %#v", m.Payload)
			}
			if n != next[s] {
				return fmt.Errorf("sender %d: got message %d, want %d", s, n, next[s])
			}
			next[s]++
		}
		return nil
	})
	c.start(t)
	c.wait(t)
	c.noErrs(t)
}

// TestDelayKeepsOrderAndBarrierFlushes: delayed frames with undelayed
// ones queued on either side arrive in send order, and a Barrier whose
// peers have all answered still waits until its own Done — queued behind
// the delay-stretched frames — has been written.
func TestDelayKeepsOrderAndBarrierFlushes(t *testing.T) {
	const msgs = 48 // fits the out queue, so tx finishes with most of them still queued
	plan := fault.New(fault.Config{Seed: 11, Delay: 0.5, MaxDelay: 2 * time.Millisecond})
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
			if m.Payload != i {
				return fmt.Errorf("arrival %d carries %v: a delay reordered the link", i, m.Payload)
			}
		}
		return nil
	})
	c.start(t)
	// Node 1 announces Done at once, so node 0's Barrier has every
	// peer's answer long before its own Done can reach the socket.
	peerBarrier := make(chan error, 1)
	go func() { peerBarrier <- c.nodes[1].Barrier(10 * time.Second) }()
	if errs := waitRuntime(t, c.rts[0]); len(errs) > 0 {
		t.Fatal(errs)
	}
	if err := c.nodes[0].Barrier(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if out := linkStat(t, observers[0], "→node1"); out.FramesOut != msgs+2 {
		t.Fatalf("Barrier returned with %d frames written, want %d (hello, %d msgs, done)", out.FramesOut, msgs+2, msgs)
	}
	if errs := waitRuntime(t, c.rts[1]); len(errs) > 0 {
		t.Fatal(errs)
	}
	if err := <-peerBarrier; err != nil {
		t.Fatal(err)
	}
	c.noErrs(t)
	if n := plan.Counts()[fault.Delay]; n == 0 || n == msgs {
		t.Fatalf("%d of %d frames delayed: the test needs a mix", n, msgs)
	}
}

// TestStreamDecodeErrorDropsLink: a payload that does not decode (here,
// of a type code nobody registered) ends the link: the receiver notes
// the error and hangs up instead of skipping the message, which would
// lose it without the sender knowing.
func TestStreamDecodeErrorDropsLink(t *testing.T) {
	c := newCluster(t, 1, map[string]uint32{"rx": 0}, nil, nil)
	c.start(t)
	conn, err := net.Dial("tcp", c.nodes[0].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	good, err := EncodePayload("never delivered")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []any{
		Hello{Node: 9, Name: "rogue"},
		Msg{From: "x", To: "rx", Seq: 1, Payload: []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}},
		Msg{From: "x", To: "rx", Seq: 2, Payload: good},
	} {
		if _, err := WriteFrame(conn, f); err != nil {
			t.Fatal(err)
		}
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// EOF, or a reset when the node closed with our last frame unread.
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read after a bad payload: %v, want the link dropped", err)
	}
	if err := c.nodes[0].Err(); err == nil || !strings.Contains(err.Error(), "dropping the link from rogue") {
		t.Fatalf("node error = %v, want the payload error naming the dropped link", err)
	}
}

// TestWireHopAllocBudget prices a warm struct message end to end,
// engine send and receive included. With the payload codec compiled at
// registration, the payload encoded straight into a recycled frame
// buffer and the frames read into a reused buffer, a hop allocates about
// five times: the Tags the receiver keeps, the decoded payload (one box,
// its fields set in place), and the engines' own work at either end —
// the sender's assumption and the receiver's copy of the message. A
// copied payload box or a heap cursor per decode adds one each; a body
// buffer per frame read, a boxed Msg or a fresh frame buffer per send
// puts it near twenty.
func TestWireHopAllocBudget(t *testing.T) {
	const warm, msgs, budget = 100, 1000, 8
	c := newCluster(t, 2, map[string]uint32{"tx": 0, "rx": 1}, nil, nil)
	// Neither body speculates, so neither replays: the channels are safe.
	warmed, measured := make(chan struct{}), make(chan struct{})
	resume := make(chan struct{})
	spawn(t, c.rts[0], "tx", func(p *engine.Proc) error {
		for i := 0; i < warm+msgs; i++ {
			if i == warm {
				<-resume
			}
			if err := p.Send("rx", streamClaim{W: i % 2, J: i, X: p.NewAID()}); err != nil {
				return err
			}
		}
		return nil
	})
	spawn(t, c.rts[1], "rx", func(p *engine.Proc) error {
		for i := 0; i < warm+msgs; i++ {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			if got := m.Payload.(streamClaim); got.J != i {
				return fmt.Errorf("message %d carries J=%d", i, got.J)
			}
			if i == warm-1 {
				close(warmed)
			}
		}
		close(measured)
		return nil
	})
	c.start(t)
	var before, after runtime.MemStats
	<-warmed
	runtime.ReadMemStats(&before)
	close(resume)
	<-measured
	runtime.ReadMemStats(&after)
	c.wait(t)
	c.noErrs(t)
	perMsg := float64(after.Mallocs-before.Mallocs) / msgs
	t.Logf("%.1f allocations per message", perMsg)
	if !raceEnabled && perMsg > budget {
		t.Fatalf("%.1f allocations per wire message, budget %d: is a frame or payload buffer being allocated per message?", perMsg, budget)
	}
}

// TestInternsPlacementNamesOnly: a sender outside the placement is
// served as it always was — its message is delivered under its own name,
// and one for a process placed nowhere is reported — while the intern
// table keeps the placement's names and no others.
func TestInternsPlacementNamesOnly(t *testing.T) {
	procs := map[string]uint32{"rx": 0}
	c := newCluster(t, 1, procs, nil, nil)
	spawn(t, c.rts[0], "rx", func(p *engine.Proc) error {
		m, err := p.Recv()
		if err != nil {
			return err
		}
		p.Printf("%s: %v\n", m.From, m.Payload)
		return nil
	})
	c.start(t)
	conn, err := net.Dial("tcp", c.nodes[0].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var segs [][]byte
	for _, v := range []any{"hello", "lost"} {
		seg, err := EncodePayload(v)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg)
	}
	for _, f := range []any{
		Hello{Node: 9, Name: "rogue"},
		Msg{From: "stranger", To: "rx", Seq: 1, Payload: segs[0]},
		Msg{From: "stranger", To: "nowhere", Seq: 2, Payload: segs[1]},
	} {
		if _, err := WriteFrame(conn, f); err != nil {
			t.Fatal(err)
		}
	}
	if errs := waitRuntime(t, c.rts[0]); len(errs) > 0 {
		t.Fatal(errs)
	}
	if got, want := c.bufs[0].String(), "stranger: hello\n"; got != want {
		t.Fatalf("rx committed %q, want %q", got, want)
	}
	report := fmt.Sprintf("wire: inject stranger→nowhere: %v: %q", engine.ErrUnknownDest, "nowhere")
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		err := c.nodes[0].Err()
		if err != nil && err.Error() == report {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node error = %v, want %q", err, report)
		}
	}
	if got := len(c.nodes[0].names); got != len(procs) {
		t.Fatalf("intern table holds %d names after a stranger's frames, want the placement's %d", got, len(procs))
	}
}

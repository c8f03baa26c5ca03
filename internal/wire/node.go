package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hope/internal/engine"
	"hope/internal/ids"
	"hope/internal/obs"
)

// Node runs one engine.Runtime as a member of a wire cluster: a full
// mesh of TCP links carrying tagged messages and resolution verdicts
// between OS processes.
//
// # Topology and ordering
//
// Every node dials every peer once; each directed pair gets its own
// connection, written by one writer goroutine — so each link is FIFO,
// which is the delivery order the engine's per-sender duplicate filter
// and the paper's channel model assume. Inbound connections are
// accepted and identified by their opening Hello frame.
//
// A Msg's payload is one self-contained segment (payload.go), encoded
// straight into its frame. A payload the receiver cannot decode ends
// the link rather than the message: the sender believes it delivered,
// and a broken link is what tells it otherwise.
//
// The writer flushes on idle: it copies whatever is already queued into
// one buffer and hands that to the socket in a single write, never
// waiting for more, so batching adds no latency and a verdict usually
// shares a write with the message that follows it. The reader reads
// through a buffer of the same size.
//
// # Distributed resolution
//
// Terminal Affirm/Deny verdicts reach every runtime: the tracker's
// verdict sink fires on each locally-committed resolution and the node
// broadcasts it; receivers apply it with Runtime.ApplyVerdict, rolling
// back remote dependents through the ordinary machinery. Only
// locally-originated verdicts are broadcast — remote ones are applied,
// never forwarded: the node keeps the set of remote verdicts it is
// applying right now, and the sink suppresses the echo of those.
// Cascade denials triggered by a remote verdict count as locally
// originated and fan out in turn. Nothing is remembered past the apply:
// a duplicate or late verdict reaches the tracker, where it is an
// idempotent no-op (and one contradicting a verdict already settled
// here is dropped), so the exchange is loop-free.
type Node struct {
	cfg   Config
	rt    *engine.Runtime
	ln    net.Listener
	peers map[uint32]*peer
	plist []*peer // peers sorted by id, for deterministic fan-out order
	// names interns inbound process names: the placement's, and only
	// those, so a stranger's names cannot grow it. Read-only.
	names map[string]string

	started   chan struct{} // closed when the mesh is up
	stopped   chan struct{} // closed by Close
	allDone   chan struct{} // closed when Done arrived from every peer
	wg        sync.WaitGroup
	closeOnce sync.Once

	mu sync.Mutex
	// applying holds the remote verdicts being applied right now, each
	// from its frame's arrival until ApplyVerdict returns.
	applying   map[ids.AID]struct{}
	done       map[uint32]bool
	doneClosed bool
	conns      []net.Conn // accepted inbound connections, for Close
	errs       []error
}

// Config describes one node's place in the cluster.
type Config struct {
	// ID is this node's index; it namespaces AIDs (engine.WithAIDBase)
	// and identifies the node in Hello/Verdict/Done frames.
	ID uint32
	// Name labels the node in Hello frames and peer metrics (default
	// "node<ID>").
	Name string
	// Listen is the TCP address to listen on; ignored when Listener is
	// set.
	Listen string
	// Listener is an optional pre-bound listener. Multi-process
	// harnesses bind in the parent and pass the socket by file
	// descriptor, so children never race for ports.
	Listener net.Listener
	// Peers maps every other node's ID to its dial address.
	Peers map[uint32]string
	// Procs is the cluster-wide placement: process name → owning node.
	// The router consults it for every Send that names no local process.
	Procs map[string]uint32
	// Obs optionally receives per-peer transport metrics.
	Obs *obs.Observer
	// DialTimeout bounds each peer dial, retrying inside the budget
	// (peers start in arbitrary order). Default 10s.
	DialTimeout time.Duration
}

type outFrame struct {
	buf   []byte
	delay time.Duration
	// sent, when non-nil, receives one token once the writer is past
	// this frame — written to the socket, or dropped because the peer
	// is lost. Barrier uses it to flush its Done frames before the
	// caller may Close the node; without the ack a Done could still be
	// queued behind a delay-stretched frame when Close kills the
	// writer, and the peer's barrier would wait for it forever.
	sent chan<- struct{}
}

type peer struct {
	id   uint32
	name string
	addr string
	conn net.Conn
	out  chan outFrame
	free chan []byte // written frames' buffers, for the next frames to reuse
	slot int         // obs metrics slot for the outbound link
	lost atomic.Bool
}

// linkBuf sizes a link's write batch and its read buffer: room for
// some thirty storm-sized frames per syscall, small enough that a
// node's retained memory does not notice its links.
const linkBuf = 4 << 10

// A link recycles up to freeFrames frame buffers of at most freeCap
// bytes each; larger or surplus buffers are left to the collector.
const (
	freeFrames = 16
	freeCap    = 1 << 10
)

// frameBuf returns an empty buffer to build one outbound frame in.
func (p *peer) frameBuf() []byte {
	select {
	case b := <-p.free:
		return b
	default:
		return nil
	}
}

// recycle offers a written frame's buffer to the link's free list.
func (p *peer) recycle(b []byte) {
	if cap(b) > freeCap {
		return
	}
	select {
	case p.free <- b[:0]:
	default:
	}
}

// NewNode wires a runtime into the cluster: it installs the remote
// router and verdict sink on rt immediately, so spawn local processes
// after NewNode and call Start before expecting traffic. Sends that
// race Start park until the mesh is up.
func NewNode(rt *engine.Runtime, cfg Config) (*Node, error) {
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("node%d", cfg.ID)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.Listener == nil && cfg.Listen == "" && len(cfg.Peers) > 0 {
		return nil, errors.New("wire: config needs Listen or Listener")
	}
	if _, ok := cfg.Peers[cfg.ID]; ok {
		return nil, fmt.Errorf("wire: node %d lists itself as a peer", cfg.ID)
	}
	n := &Node{
		cfg:      cfg,
		rt:       rt,
		peers:    make(map[uint32]*peer, len(cfg.Peers)),
		started:  make(chan struct{}),
		stopped:  make(chan struct{}),
		allDone:  make(chan struct{}),
		applying: make(map[ids.AID]struct{}),
		done:     make(map[uint32]bool),
		names:    make(map[string]string, len(cfg.Procs)),
	}
	for name := range cfg.Procs {
		n.names[name] = name
	}
	for id, addr := range cfg.Peers {
		p := &peer{
			id:   id,
			name: fmt.Sprintf("node%d", id),
			addr: addr,
			// The writer empties the queue into one write each time it
			// wakes, so depth only has to cover what senders produce
			// during one flush; two batches' worth of frames is ample.
			out:  make(chan outFrame, 64),
			free: make(chan []byte, freeFrames),
		}
		p.slot = cfg.Obs.RegisterWirePeer(cfg.Name + "→" + p.name)
		n.peers[id] = p
		n.plist = append(n.plist, p)
	}
	sort.Slice(n.plist, func(i, j int) bool { return n.plist[i].id < n.plist[j].id })
	rt.SetRemoteRouter(n.route)
	rt.SetVerdictSink(n.onVerdict)
	return n, nil
}

// Start brings the mesh up: listen, dial every peer (with retry — the
// cluster starts in arbitrary order), send Hello, and release any
// parked sends.
func (n *Node) Start() error {
	ln := n.cfg.Listener
	if ln == nil && n.cfg.Listen != "" {
		var err error
		ln, err = net.Listen("tcp", n.cfg.Listen)
		if err != nil {
			return fmt.Errorf("wire: listen %s: %w", n.cfg.Listen, err)
		}
	}
	n.ln = ln
	if ln != nil {
		n.wg.Add(1)
		go n.acceptLoop()
	}
	var derr error
	var dmu sync.Mutex
	var dwg sync.WaitGroup
	for _, p := range n.plist {
		dwg.Add(1)
		go func(p *peer) {
			defer dwg.Done()
			if err := n.connect(p); err != nil {
				dmu.Lock()
				derr = errors.Join(derr, err)
				dmu.Unlock()
			}
		}(p)
	}
	dwg.Wait()
	if derr != nil {
		return derr
	}
	close(n.started)
	return nil
}

// Addr returns the node's bound listen address (nil before Start or
// without a listener).
func (n *Node) Addr() net.Addr {
	if n.ln == nil {
		return nil
	}
	return n.ln.Addr()
}

// connect dials one peer, sends Hello, and starts the link's writer.
func (n *Node) connect(p *peer) error {
	deadline := time.Now().Add(n.cfg.DialTimeout)
	for {
		conn, err := net.DialTimeout("tcp", p.addr, time.Second)
		if err == nil {
			p.conn = conn
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wire: dial %s (%s): %w", p.name, p.addr, err)
		}
		select {
		case <-n.stopped:
			return fmt.Errorf("wire: node closed while dialing %s", p.name)
		case <-time.After(20 * time.Millisecond):
		}
	}
	nw, err := WriteFrame(p.conn, Hello{Node: n.cfg.ID, Name: n.cfg.Name})
	if err != nil {
		return fmt.Errorf("wire: hello to %s: %w", p.name, err)
	}
	n.cfg.Obs.WireFrameOut(p.slot, nw)
	n.wg.Add(1)
	go n.writeLoop(p)
	return nil
}

// route is the engine's RemoteRouter: consult placement, build the frame
// with the payload encoded in place, and hand it to the link writer. The
// frame carries the message's injected delay to the writer. Parks until
// the mesh is up so spawn-before-Start sends never race it. A name
// placed on this node that has no process yet is handed straight to
// the runtime, which holds it until the name is spawned.
func (n *Node) route(m engine.WireMsg) error {
	select {
	case <-n.started:
	case <-n.stopped:
		return engine.ErrDelivery
	}
	owner, ok := n.cfg.Procs[m.To]
	if !ok {
		return fmt.Errorf("%w: %q (no placement)", engine.ErrUnknownDest, m.To)
	}
	if owner == n.cfg.ID {
		n.rt.InjectRemote(m)
		return nil
	}
	p := n.peers[owner]
	if p == nil {
		return fmt.Errorf("%w: %q placed on unknown node %d", engine.ErrUnknownDest, m.To, owner)
	}
	if p.lost.Load() {
		return engine.ErrDelivery
	}
	buf, err := appendMsgValue(p.frameBuf(), &Msg{
		From: m.From, To: m.To, Seq: m.Seq, Tags: m.Tags,
	}, m.Payload)
	if err != nil {
		return fmt.Errorf("wire: encode %s→%s: %w", m.From, m.To, err)
	}
	return n.enqueue(p, outFrame{buf: buf, delay: m.Delay})
}

// enqueue hands a frame to the link's writer in FIFO order.
func (n *Node) enqueue(p *peer, f outFrame) error {
	select {
	case p.out <- f:
		return nil
	case <-n.stopped:
		return engine.ErrDelivery
	}
}

// onVerdict is the tracker's verdict sink: broadcast each
// locally-originated terminal resolution to every peer. The tracker
// reports each AID's terminal verdict once; one that fires while a
// remote verdict for the same AID is being applied is that verdict's
// echo, suppressed here, so nothing is forwarded.
func (n *Node) onVerdict(x ids.AID, affirmed bool) {
	n.mu.Lock()
	_, echo := n.applying[x]
	n.mu.Unlock()
	if echo || len(n.plist) == 0 {
		return
	}
	v := Verdict{AID: x, Affirmed: affirmed, Origin: n.cfg.ID}
	fanout := 0
	for _, p := range n.plist {
		// One buffer per peer: each link's writer recycles its own.
		if n.enqueue(p, outFrame{buf: appendVerdict(p.frameBuf(), v)}) == nil {
			fanout++
		}
	}
	n.cfg.Obs.WireVerdictBroadcast(fanout)
}

// writeLoop is one link's single writer: FIFO, flush on idle. Each time
// it wakes it copies every frame already queued into one batch and
// writes that once; it never waits for a batch to fill. A frame with an
// injected delay first flushes what precedes it, then sleeps, so delays
// stretch the link rather than reorder it. On a write error the peer is
// marked lost (senders see ErrDelivery) and the loop keeps draining the
// queue, acking without writing, so nothing blocks.
func (n *Node) writeLoop(p *peer) {
	defer n.wg.Done()
	batch := make([]byte, 0, linkBuf)
	var held []outFrame // the frames not yet written, in order
	// flush writes b — the bytes of exactly the held frames — then
	// accounts for and acks each frame: sent or not, the writer is past
	// it.
	flush := func(b []byte) {
		if len(held) == 0 {
			return
		}
		if !p.lost.Load() {
			nw, err := p.conn.Write(b)
			for _, f := range held {
				k := min(nw, len(f.buf))
				nw -= k
				n.cfg.Obs.WireFrameOut(p.slot, k)
			}
			if err != nil {
				p.lost.Store(true)
				if !n.closing() {
					n.noteErr(fmt.Errorf("wire: write to %s: %w", p.name, err))
				}
			}
		}
		for _, f := range held {
			if f.sent != nil {
				f.sent <- struct{}{}
			}
			p.recycle(f.buf)
		}
		clear(held) // drop the frame buffers, not just the length
		batch, held = batch[:0], held[:0]
	}
	for {
		var f outFrame
		select {
		case f = <-p.out:
		case <-n.stopped:
			return
		}
		for queued := true; queued; {
			if f.delay > 0 && !p.lost.Load() {
				flush(batch)
				select {
				case <-time.After(f.delay):
				case <-n.stopped:
					return
				}
			}
			if len(batch)+len(f.buf) > cap(batch) {
				flush(batch)
			}
			held = append(held, f)
			if len(f.buf) > cap(batch) {
				flush(f.buf) // too big to batch: goes out alone, uncopied
			} else {
				batch = append(batch, f.buf...)
			}
			select {
			case f = <-p.out:
			default:
				queued = false
			}
		}
		flush(batch)
	}
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		n.conns = append(n.conns, conn)
		n.mu.Unlock()
		if n.closing() {
			// Close may have copied conns before the append above and
			// would then wait forever on a readLoop nobody unblocks.
			conn.Close()
		}
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop drains one inbound connection: Hello identifies the peer,
// then Msg frames are injected into the runtime, Verdict frames applied
// (once), Done frames counted toward the termination barrier. Frames are
// read into the link's reused storage (linkReader); a Msg's payload is
// decoded before the next read overwrites it.
func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	lr := linkReader{r: bufio.NewReaderSize(conn, linkBuf), names: n.names}
	typ, f, sz, err := lr.next()
	if err != nil {
		if !n.closing() {
			n.noteErr(fmt.Errorf("wire: inbound %s: %w", conn.RemoteAddr(), err))
		}
		return
	}
	hello, ok := f.(Hello)
	if !ok {
		n.noteErr(fmt.Errorf("wire: inbound %s opened with a %s frame, want Hello", conn.RemoteAddr(), typ))
		return
	}
	slot := n.cfg.Obs.RegisterWirePeer(n.cfg.Name + "←" + hello.Name)
	n.cfg.Obs.WireFrameIn(slot, sz)
	lastSeq := make(map[string]uint64) // per-sender redelivery accounting
	sawDone := false
	for {
		typ, f, sz, err := lr.next()
		if err != nil {
			// EOF at a frame boundary is the peer leaving; anything after
			// its Done, or during our own shutdown, is normal teardown.
			if !errors.Is(err, io.EOF) && !sawDone && !n.closing() {
				n.noteErr(fmt.Errorf("wire: read from %s: %w", hello.Name, err))
			}
			return
		}
		n.cfg.Obs.WireFrameIn(slot, sz)
		switch typ {
		case FrameMsg:
			m := &lr.msg
			if last, seen := lastSeq[m.From]; seen && m.Seq <= last {
				n.cfg.Obs.WireRedelivery(slot)
			} else {
				lastSeq[m.From] = m.Seq
			}
			payload, err := DecodePayload(m.Payload)
			if err != nil {
				// Skipping the message would lose it silently, so give
				// the link up: closing it makes the sender's next write
				// fail and its sends degrade to ErrDelivery.
				n.noteErr(fmt.Errorf("wire: payload %s→%s: %w; dropping the link from %s", m.From, m.To, err, hello.Name))
				return
			}
			// Duplicates are injected too: the engine's per-sender
			// filter suppresses them, which is the machinery under test.
			// A name placed elsewhere, or nowhere, is a stranger's
			// misaddressed frame: one placed here parks until spawned.
			if owner, ok := n.cfg.Procs[m.To]; !ok || owner != n.cfg.ID {
				n.noteErr(fmt.Errorf("wire: inject %s→%s: %w: %q", m.From, m.To, engine.ErrUnknownDest, m.To))
			} else {
				n.rt.InjectRemote(engine.WireMsg{
					From: m.From, To: m.To, Seq: m.Seq, Tags: m.Tags, Payload: payload,
				})
			}
		case FrameVerdict:
			v := lr.verdict
			if err := n.apply(v); err != nil {
				n.noteErr(fmt.Errorf("wire: verdict %v from node %d: %w", v.AID, v.Origin, err))
			}
		case FrameDone:
			sawDone = true
			n.markDone(f.(Done).Node)
		default:
			n.noteErr(fmt.Errorf("wire: unexpected %s frame from %s", typ, hello.Name))
		}
	}
}

// apply applies a remote verdict, holding its AID in the applying set
// meanwhile. The same AID already being applied from another link makes
// this one a duplicate, dropped. A verdict that contradicts one already
// settled here is dropped too: the first verdict to settle here stands.
func (n *Node) apply(v Verdict) error {
	n.mu.Lock()
	_, dup := n.applying[v.AID]
	if !dup {
		n.applying[v.AID] = struct{}{}
	}
	n.mu.Unlock()
	if dup {
		return nil
	}
	err := n.rt.ApplyVerdict(v.AID, v.Affirmed)
	n.mu.Lock()
	delete(n.applying, v.AID)
	n.mu.Unlock()
	if errors.Is(err, engine.ErrConflict) && n.rt.Status(v.AID).Terminal() {
		return nil
	}
	return err
}

func (n *Node) markDone(id uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.done[id] {
		return
	}
	n.done[id] = true
	if len(n.done) >= len(n.peers) && !n.doneClosed {
		n.doneClosed = true
		close(n.allDone)
	}
}

// Barrier announces that this node's local work is finished and waits
// for the same announcement from every peer. Call after the local
// runtime quiesced; the Done frame trails every pending verdict on each
// link (FIFO), so when the barrier releases, all verdicts this node
// originated have been transmitted. The barrier waits for its own Done
// frames to reach the sockets too (outFrame.sent), so a node whose
// peers answer quickly cannot Close while its Done still sits queued
// behind a delay-stretched frame — that lost Done would strand the
// slower peer's barrier.
func (n *Node) Barrier(timeout time.Duration) error {
	if len(n.plist) == 0 {
		return nil
	}
	acks := make(chan struct{}, len(n.plist))
	flushes := 0
	for _, p := range n.plist {
		buf, err := AppendFrame(p.frameBuf(), Done{Node: n.cfg.ID})
		if err != nil {
			return err
		}
		if n.enqueue(p, outFrame{buf: buf, sent: acks}) == nil {
			flushes++
		}
	}
	deadline := time.After(timeout)
	fail := func() error {
		n.mu.Lock()
		got := len(n.done)
		n.mu.Unlock()
		return fmt.Errorf("wire: barrier timeout after %v (done from %d/%d peers)", timeout, got, len(n.plist))
	}
	for i := 0; i < flushes; i++ {
		select {
		case <-acks:
		case <-n.stopped:
			return errors.New("wire: node closed during barrier")
		case <-deadline:
			return fail()
		}
	}
	select {
	case <-n.allDone:
		return nil
	case <-n.stopped:
		return errors.New("wire: node closed during barrier")
	case <-deadline:
		return fail()
	}
}

func (n *Node) closing() bool {
	select {
	case <-n.stopped:
		return true
	default:
		return false
	}
}

// noteErr records an asynchronous transport error (bounded).
func (n *Node) noteErr(err error) {
	n.mu.Lock()
	if len(n.errs) < 32 {
		n.errs = append(n.errs, err)
	}
	n.mu.Unlock()
}

// Err joins the transport errors observed so far.
func (n *Node) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return errors.Join(n.errs...)
}

// Close tears the mesh down and waits for every link goroutine. It
// returns the joined transport errors (nil on a clean run).
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.stopped)
		if n.ln != nil {
			n.ln.Close()
		}
		for _, p := range n.plist {
			if p.conn != nil {
				p.conn.Close()
			}
		}
		n.mu.Lock()
		conns := append([]net.Conn(nil), n.conns...)
		n.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		n.wg.Wait()
	})
	return n.Err()
}

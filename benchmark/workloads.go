package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"hope/internal/engine"
	"hope/internal/obs"
	"hope/internal/rpc"
	"hope/internal/wire"
)

// Episode sizes. They are part of each workload's identity (recorded in
// BENCHMARK.json and README.md): changing one starts a new baseline.
const (
	stormWorkers    = 2    // closed-loop clients, constant on every machine
	stormInprocJobs = 1000 // per worker
	stormWireJobs   = 250  // per worker

	journalWorkers    = 2
	journalWindows    = 12 // per worker
	journalBatch      = 32 // records per window
	journalCheckpoint = 8  // WithCheckpointEvery

	callJobs      = 50 // print jobs, two calls each
	callPage      = 50 // lines per page
	callOverflow  = 4  // every 4th job overflows the page
	callVerifiers = 8
	callLatency   = 2 * time.Millisecond // one way, above the ~1.1 ms timer floor

	// clusterShards pins the tracker and scheduler shard count to what
	// the engine's default picks at GOMAXPROCS 2, so the cross-shard
	// paths run although the benchmark itself runs on one P (main.go).
	clusterShards = 2
)

// scale shrinks every episode for the tier-1 test; 1 is the benchmark.
func workloads(scale int) []*workload {
	div := func(n int) int { return max(n/scale, 2) }
	return []*workload{
		stormWorkload("storm_inproc", 1, div(stormInprocJobs)),
		stormWorkload("storm_wire2", 2, div(stormWireJobs)),
		journalWorkload(div(journalWindows)),
		callWorkload("callstream_wan", div(callJobs), false),
	}
}

func findWorkload(name string, scale int) *workload {
	for _, wl := range workloads(scale) {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// newCluster makes n runtimes; with n > 1 they are joined by wire nodes
// over loopback TCP, one connection per directed pair, and placement
// says which node runs which process. The mesh is not started.
func newCluster(n int, placement map[string]uint32, o *obs.Observer, opts ...engine.Option) (*instance, error) {
	in := &instance{}
	in.wait = in.waitAll
	base := []engine.Option{engine.WithOutput(io.Discard), engine.WithObserver(o), engine.WithShards(clusterShards)}
	if n == 1 {
		in.rts = []*engine.Runtime{engine.New(append(base, opts...)...)}
		return in, nil
	}
	listeners := make([]net.Listener, n)
	addrs := make(map[uint32]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return in, err
		}
		listeners[i] = ln
		addrs[uint32(i)] = ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		rt := engine.New(append(append(base, engine.WithAIDBase(uint64(i)<<48)), opts...)...)
		in.rts = append(in.rts, rt)
		peers := make(map[uint32]string, n-1)
		for id, addr := range addrs {
			if id != uint32(i) {
				peers[id] = addr
			}
		}
		node, err := wire.NewNode(rt, wire.Config{ID: uint32(i), Listener: listeners[i], Peers: peers, Procs: placement, Obs: o})
		if err != nil {
			for _, l := range listeners[i:] {
				l.Close()
			}
			return in, err
		}
		in.nodes = append(in.nodes, node)
	}
	return in, nil
}

// startMesh brings every node's links up.
func (in *instance) startMesh(tr *tracer) error {
	for i, n := range in.nodes {
		t0 := tr.begin()
		err := n.Start()
		tr.end(spStart, -1, t0)
		if err != nil {
			return fmt.Errorf("node %d start: %w", i, err)
		}
	}
	return nil
}

// Traced forms of the engine.Proc calls the bodies make: each is the
// call itself plus, in a traced episode, one span charged to op.

func (t *tracer) send(p *engine.Proc, op int, to string, payload any) error {
	t0 := t.begin()
	err := p.Send(to, payload)
	t.end(spSend, op, t0)
	return err
}

func (t *tracer) newAID(p *engine.Proc, op int) engine.AID {
	t0 := t.begin()
	x := p.NewAID()
	t.end(spNewAID, op, t0)
	return x
}

func (t *tracer) guess(p *engine.Proc, op int, x engine.AID) bool {
	t0 := t.begin()
	ok := p.Guess(x)
	t.end(spGuess, op, t0)
	return ok
}

func (t *tracer) affirm(p *engine.Proc, op int, x engine.AID) error {
	t0 := t.begin()
	err := p.Affirm(x)
	t.end(spAffirm, op, t0)
	return err
}

func (t *tracer) deny(p *engine.Proc, op int, x engine.AID) error {
	t0 := t.begin()
	err := p.Deny(x)
	t.end(spDeny, op, t0)
	return err
}

func (t *tracer) effect(p *engine.Proc, op int, commit func()) {
	t0 := t.begin()
	p.Effect(commit, nil)
	t.end(spEffect, op, t0)
}

// --- storm_inproc, storm_wire2 ---------------------------------------------

// stormClaim asks the judge to rule on one job's assumption.
type stormClaim struct {
	W, J int
	X    engine.AID
}

// outLine carries one line of output to the sink, with the op it
// belongs to.
type outLine struct {
	Op   int
	Line string
}

func init() {
	wire.RegisterPayload(stormClaim{})
	wire.RegisterPayload(outLine{})
}

type stormCursor struct{ J int }

// stormWorkload is the speculate/judge/settle storm on `nodes` runtimes:
// each worker job mints an assumption, asks the judge to rule on it,
// guesses it, and sends its result line — riding on the assumption — to
// a pessimistic sink; the judge's ack closes the job. The inputs are
// the deny rule's offset: job (w, j) is denied iff (w+j+off)%4 == 0.
// With nodes == 2 the workers run on node 0 and the judge and sink on
// node 1, so every claim, result, ack and verdict crosses a socket.
func stormWorkload(name string, nodes, jobs int) *workload {
	total := stormWorkers * jobs
	placement := map[string]uint32{"judge": uint32(nodes - 1), "sink": uint32(nodes - 1)}
	workers := make([]string, stormWorkers)
	for w := range workers {
		workers[w] = fmt.Sprintf("worker%d", w)
		placement[workers[w]] = 0
	}
	wl := &workload{name: name, ops: total}
	wl.prepare = func(ep *episode) func() (*instance, error) {
		off := int(uint64(ep.in) % 4)
		denied := func(w, j int) bool { return (w+j+off)%4 == 0 }
		value := func(w, j int, ok bool) string {
			v := w*10000 + j
			if !ok {
				v = -v // the pessimistic path
			}
			return fmt.Sprintf("w%d j%04d v%+d", w, j, v)
		}
		for w := 0; w < stormWorkers; w++ {
			for j := 0; j < jobs; j++ {
				ep.denied[w*jobs+j] = denied(w, j)
				ep.want[w*jobs+j] = value(w, j, !denied(w, j))
			}
		}
		return func() (*instance, error) {
			in, err := newCluster(nodes, placement, ep.obs)
			if err != nil {
				return in, err
			}
			back := in.rts[nodes-1]
			jt := ep.tracer("judge")
			if err := back.Spawn("judge", func(p *engine.Proc) error {
				for i := 0; i < total; i++ {
					t0 := jt.begin()
					m, err := p.Recv()
					if err != nil {
						return err
					}
					c := m.Payload.(stormClaim)
					op := c.W*jobs + c.J
					jt.end(spRecv, op, t0)
					if denied(c.W, c.J) {
						ep.denying(op)
						err = jt.deny(p, op, c.X)
					} else {
						err = jt.affirm(p, op, c.X)
					}
					if err != nil {
						return err
					}
					if err := jt.send(p, op, workers[c.W], "ack"); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return in, err
			}
			if err := spawnSink(back, ep, total); err != nil {
				return in, err
			}
			if err := in.startMesh(ep.harness); err != nil {
				return in, err
			}
			in.start = func() error {
				for w := range workers {
					w := w
					wt := ep.tracer(workers[w])
					if err := engine.Loop(in.rts[0], workers[w],
						func() *stormCursor { return &stormCursor{} },
						func(s *stormCursor) *stormCursor { c := *s; return &c },
						func(p *engine.Proc, s *stormCursor) error {
							if s.J >= jobs {
								return engine.ErrStopLoop
							}
							j := s.J
							op := w*jobs + j
							ep.enter(op)
							x := wt.newAID(p, op)
							// Sent while definite: the judge never
							// inherits speculation from a claim.
							if err := wt.send(p, op, "judge", stormClaim{W: w, J: j, X: x}); err != nil {
								return err
							}
							line := value(w, j, wt.guess(p, op, x))
							if err := wt.send(p, op, "sink", outLine{Op: op, Line: line}); err != nil {
								return err
							}
							wt.effect(p, op, func() { ep.commit(op) })
							// The ack closes the job's speculation
							// window: consumed on a settled path, it
							// leaves the worker definite again.
							t0 := wt.begin()
							if _, err := p.Recv(); err != nil {
								return err
							}
							wt.end(spRecv, op, t0)
							s.J++
							return nil
						}); err != nil {
						return err
					}
				}
				return nil
			}
			return in, nil
		}
	}
	return wl
}

// spawnSink spawns the pessimistic sink shared by the storms and the
// journal: it consumes only settled lines and prints each as an Effect
// — the committed output the oracle compares with the reference.
func spawnSink(rt *engine.Runtime, ep *episode, total int) error {
	st := ep.tracer("sink")
	return rt.Spawn("sink", func(p *engine.Proc) error {
		for i := 0; i < total; i++ {
			t0 := st.begin()
			m, err := p.RecvSettled()
			if err != nil {
				return err
			}
			l := m.Payload.(outLine)
			st.end(spRecvSettled, l.Op, t0)
			st.effect(p, l.Op, func() { ep.emit(l.Op, l.Line) })
		}
		return nil
	})
}

// --- journal_rollback ------------------------------------------------------

type journalState struct {
	B     int // window
	I     int // next record in the window
	Phase int
	Pin   engine.AID
}

const (
	journalOpen = iota
	journalRecords
	journalJudge
)

// journalWorkload is the checkpoint-shaped workload: each worker runs
// windows of journalBatch records held speculative under one pin
// assumption, then guesses a late assumption that it denies itself on
// the windows the inputs pick — rolling back over the whole batch —
// writes the verdict line and affirms the pin, which commits the
// window. An op is one committed line. The input is the deny rule's
// offset: window (w, b) is denied iff (w+b+off)%2 == 0.
func journalWorkload(windows int) *workload {
	const perWindow = journalBatch + 1
	total := journalWorkers * windows * perWindow
	wl := &workload{name: "journal_rollback", ops: total}
	wl.prepare = func(ep *episode) func() (*instance, error) {
		off := int(uint64(ep.in) % 2)
		denied := func(w, b int) bool { return (w+b+off)%2 == 0 }
		record := func(w, b, i int) string {
			return fmt.Sprintf("w%d b%02d r%02d v%d", w, b, i, (w+1)*100000+b*100+i)
		}
		verdict := func(w, b int, ok bool) string {
			if ok {
				return fmt.Sprintf("w%d b%02d verdict opt", w, b)
			}
			return fmt.Sprintf("w%d b%02d verdict pess", w, b)
		}
		for w := 0; w < journalWorkers; w++ {
			for b := 0; b < windows; b++ {
				first := (w*windows + b) * perWindow
				for i := 0; i < journalBatch; i++ {
					ep.want[first+i] = record(w, b, i)
				}
				ep.want[first+journalBatch] = verdict(w, b, !denied(w, b))
				ep.denied[first+journalBatch] = denied(w, b)
			}
		}
		return func() (*instance, error) {
			in, err := newCluster(1, nil, ep.obs, engine.WithCheckpointEvery(journalCheckpoint))
			if err != nil {
				return in, err
			}
			rt := in.rts[0]
			if err := spawnSink(rt, ep, total); err != nil {
				return in, err
			}
			in.start = func() error {
				for w := 0; w < journalWorkers; w++ {
					w := w
					name := fmt.Sprintf("journal%d", w)
					wt := ep.tracer(name)
					if err := engine.Loop(rt, name,
						func() *journalState { return &journalState{} },
						func(s *journalState) *journalState { c := *s; return &c },
						func(p *engine.Proc, s *journalState) error {
							first := (w*windows + s.B) * perWindow
							switch s.Phase {
							case journalOpen:
								if s.B >= windows {
									return engine.ErrStopLoop
								}
								s.Pin = wt.newAID(p, -1)
								if !wt.guess(p, -1, s.Pin) {
									return fmt.Errorf("%s: pin of window %d denied", name, s.B)
								}
								s.Phase, s.I = journalRecords, 0
							case journalRecords:
								op := first + s.I
								ep.enter(op)
								if err := wt.send(p, op, "sink", outLine{Op: op, Line: record(w, s.B, s.I)}); err != nil {
									return err
								}
								wt.effect(p, op, func() { ep.commit(op) })
								s.I++
								if s.I >= journalBatch {
									s.Phase = journalJudge
								}
							case journalJudge:
								op := first + journalBatch
								ep.enter(op)
								late := wt.newAID(p, op)
								ok := wt.guess(p, op, late)
								// The worker rules on its own late
								// assumption (§5.3) before anything can
								// leak it; the deny unwinds this call,
								// and on the replayed pass it is an
								// idempotent no-op.
								var err error
								if denied(w, s.B) {
									ep.denying(op)
									err = wt.deny(p, op, late)
								} else {
									err = wt.affirm(p, op, late)
								}
								if err != nil && !errors.Is(err, engine.ErrConflict) {
									return err
								}
								if err := wt.send(p, op, "sink", outLine{Op: op, Line: verdict(w, s.B, ok)}); err != nil {
									return err
								}
								wt.effect(p, op, func() { ep.commit(op) })
								// Affirming the pin commits the window.
								if err := wt.affirm(p, op, s.Pin); err != nil && !errors.Is(err, engine.ErrConflict) {
									return err
								}
								s.B++
								s.Phase = journalOpen
							}
							return nil
						}); err != nil {
						return err
					}
				}
				return nil
			}
			return in, nil
		}
	}
	return wl
}

// --- callstream_wan --------------------------------------------------------

type printReq struct {
	Total bool
	Lines int
}

// printJobs generates the callstream inputs: how many lines each job's
// first call prints. Every callOverflow-th job crosses the page
// boundary, as workload.PrintJobs' overflowing jobs do, but at fixed
// positions: what a misprediction costs grows with how many calls
// precede it, so jobs drawn independently made allocs_per_op and
// reexec_per_op differ by 5-8 % between seed ranges, more than the
// bounds that guard them.
func printJobs(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	lines := make([]int, n)
	for k := range lines {
		lines[k] = 1 + rng.Intn(callPage-1) // stays on the page
		if k%callOverflow == callOverflow-1 {
			lines[k] = callPage + rng.Intn(callPage) // crosses it
		}
	}
	return lines
}

// callWorkload is the paper's Figure 2: one worker streams two print
// calls per job at an ordered stateful print server through
// rpc.StreamCall, predicting each reply; a job that overflows the page
// makes its first call's prediction wrong. The inputs are the print
// jobs. An op is one call; it commits when every assumption the worker
// made up to it has been affirmed. With synchronous set the same jobs
// run through rpc.Session.Call, the Figure 1 baseline.
func callWorkload(name string, jobs int, synchronous bool) *workload {
	wl := &workload{name: name, ops: 2 * jobs}
	wl.prepare = func(ep *episode) func() (*instance, error) {
		pj := printJobs(jobs, ep.in)
		// The reference: the printer run sequentially over the jobs.
		printer := func() rpc.Handler {
			line := 0
			return func(req any) any {
				r := req.(printReq)
				if r.Total {
					line = r.Lines % callPage
				} else {
					line++
				}
				return line
			}
		}
		format := func(op, line int) string { return fmt.Sprintf("call %03d line %d", op, line) }
		ref := printer()
		replies := make([]int, 0, 2*jobs)
		for k, lines := range pj {
			total := ref(printReq{Total: true, Lines: lines}).(int)
			next := ref(printReq{}).(int)
			replies = append(replies, total, next)
			ep.want[2*k], ep.want[2*k+1] = format(2*k, total), format(2*k+1, next)
			ep.denied[2*k] = total != lines
		}
		return func() (*instance, error) {
			in, err := newCluster(1, nil, ep.obs,
				engine.WithLatency(func(from, to string) time.Duration { return callLatency }))
			if err != nil {
				return in, err
			}
			rt := in.rts[0]
			// The ordered server consumes only committed requests and
			// never replays, so its handler runs once per call: the
			// sequence of lines it printed is committed output.
			var printed []int
			if err := rpc.ServeOrderedStateful(rt, "printer", func() rpc.Handler {
				h := printer()
				return func(req any) any {
					line := h(req)
					printed = append(printed, line.(int))
					return line
				}
			}); err != nil {
				return in, err
			}
			client, err := rpc.NewClient(rt, "worker", rpc.WithVerifiers(callVerifiers))
			if err != nil {
				return in, err
			}
			done := make(chan struct{})
			in.start = func() error {
				wt := ep.tracer("worker")
				return rt.Spawn("worker", func(p *engine.Proc) error {
					s := client.Session(p)
					local := 0
					call := func(op int, req printReq, predicted int) error {
						ep.enter(op)
						t0 := wt.begin()
						var got any
						var err error
						if synchronous {
							got, err = s.Call("printer", req)
							wt.end(spCall, op, t0)
						} else {
							got, _, err = s.StreamCall("printer", req, predicted)
							wt.end(spStreamCall, op, t0)
						}
						if err != nil {
							return err
						}
						local = got.(int)
						line := local
						wt.effect(p, op, func() {
							ep.commit(op)
							ep.emit(op, format(op, line))
						})
						return nil
					}
					for k, lines := range pj {
						if err := call(2*k, printReq{Total: true, Lines: lines}, lines); err != nil {
							return err
						}
						if err := call(2*k+1, printReq{}, local+1); err != nil {
							return err
						}
					}
					wt.effect(p, -1, func() { close(done) })
					return nil
				})
			}
			in.wait = func(stop <-chan struct{}) error {
				select {
				case <-done:
				case <-stop:
					return errors.New("stopped")
				}
				rt.Quiesce()
				return nil
			}
			// Commits must equal calls attempted (score checks every
			// op's line); the printer must have printed exactly the
			// reference sequence, no call served twice or skipped.
			in.check = func() error {
				if len(printed) != len(replies) {
					return fmt.Errorf("printer served %d calls, want %d", len(printed), len(replies))
				}
				for i := range replies {
					if printed[i] != replies[i] {
						return fmt.Errorf("printer line %d is %d, want %d", i, printed[i], replies[i])
					}
				}
				return nil
			}
			return in, nil
		}
	}
	return wl
}

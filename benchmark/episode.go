package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hope/internal/engine"
	"hope/internal/obs"
	"hope/internal/wire"
)

// workload is one named workload: a fixed-size episode that the harness
// repeats back to back. Size is part of the workload's identity —
// per-op cost grows with run length today — so the sizes are constants
// in workloads.go, not flags.
type workload struct {
	name string
	// ops is how many operations one episode attempts.
	ops int
	// prepare generates one episode's inputs from ep.in, computes the
	// reference output from them sequentially, and returns build. build
	// constructs the program — runtimes, servers, mesh — up to the point
	// where the clients can start; what it does is set-up time, what
	// prepare does is the harness's own time.
	prepare func(ep *episode) (build func() (*instance, error))
}

// instance is one episode's running program.
type instance struct {
	rts   []*engine.Runtime
	nodes []*wire.Node
	// start spawns the clients: the measured window opens here.
	start func() error
	// wait blocks until every operation has committed and the program
	// is quiet, or until stop closes.
	wait func(stop <-chan struct{}) error
	// check is the workload's extra oracle over state the per-op line
	// comparison cannot see (nil when there is none).
	check func() error
}

// waitAll is the default instance.wait: every process of every runtime
// ran to completion.
func (in *instance) waitAll(<-chan struct{}) error {
	var errs []error
	for _, rt := range in.rts {
		errs = append(errs, rt.Wait()...)
	}
	return errors.Join(errs...)
}

// barrier holds every node's termination barrier at once: each releases
// only when all peers announced Done, so they cannot run one by one.
func (in *instance) barrier(timeout time.Duration) error {
	errs := make([]error, len(in.nodes))
	var wg sync.WaitGroup
	for i, n := range in.nodes {
		wg.Add(1)
		go func(i int, n *wire.Node) {
			defer wg.Done()
			errs[i] = n.Barrier(timeout)
		}(i, n)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// close tears the program down: mesh first, then the runtimes.
func (in *instance) close() error {
	var errs []error
	for _, n := range in.nodes {
		errs = append(errs, n.Close())
	}
	for _, rt := range in.rts {
		rt.Shutdown()
	}
	return errors.Join(errs...)
}

func (in *instance) debug() string {
	s := ""
	for i, rt := range in.rts {
		s += fmt.Sprintf("runtime %d:\n%s", i, rt.DebugString())
	}
	return s
}

// episode is the harness side of one episode: the inputs, the per-op
// stamps the bodies write, and the committed output. Every slot of the
// per-op slices has one writing goroutine at a time, and the harness
// reads them only after the program has ended, so they need no lock.
type episode struct {
	// in seeds this episode's inputs: the run's seed plus the episode's
	// index, so a run sees many inputs and two runs of one seed see the
	// same ones.
	in int64

	issued    []int64  // first entry into the op's code
	committed []int64  // the op's commit Effect ran
	denyAt    []int64  // a body called Deny on the op's assumption
	reenterAt []int64  // second entry into the op's code
	execs     []int32  // entries into the op's code, replays included
	lines     []string // committed output, one line per op
	dups      atomic.Int32

	// denied marks the ops whose assumption the inputs deny; want is
	// the reference output, computed sequentially from the inputs.
	// Both are filled by workload.prepare.
	denied []bool
	want   []string

	// Tracing: obs, harness and every tracer are nil when the episode
	// is untraced. harness holds the spans of the harness's own calls
	// into wire.Node (Start, Barrier).
	obs     *obs.Observer
	tracers []*tracer
	harness *tracer
}

func newEpisode(wl *workload, in int64, traced bool) *episode {
	ep := &episode{
		in:        in,
		issued:    make([]int64, wl.ops),
		committed: make([]int64, wl.ops),
		denyAt:    make([]int64, wl.ops),
		reenterAt: make([]int64, wl.ops),
		execs:     make([]int32, wl.ops),
		lines:     make([]string, wl.ops),
		denied:    make([]bool, wl.ops),
		want:      make([]string, wl.ops),
	}
	if traced {
		ep.obs = obs.New()
		ep.harness = ep.tracer("harness")
	}
	return ep
}

// enter marks one execution of op's code in a body: it counts the
// execution, stamps the first one as the op's issue time and the
// second as the moment a rolled-back op resumed.
func (ep *episode) enter(op int) {
	t := now()
	//hopevet:ignore escape -- execution counter: counting replays is its purpose
	ep.execs[op]++
	switch {
	case ep.issued[op] == 0:
		//hopevet:ignore escape -- first-issue stamp, idempotent: only the first execution writes it
		ep.issued[op] = t
	case ep.reenterAt[op] == 0:
		//hopevet:ignore escape -- resume stamp, idempotent: only the second execution writes it
		ep.reenterAt[op] = t
	}
}

// denying stamps the moment a body is about to deny op's assumption.
func (ep *episode) denying(op int) {
	if ep.denyAt[op] == 0 {
		//hopevet:ignore escape -- measurement stamp, idempotent: only the first Deny of the op writes it
		ep.denyAt[op] = now()
	}
}

// commit is the body of every op's commit Effect, registered by the
// body that issued the op: it stamps the moment the op's speculation
// was confirmed.
func (ep *episode) commit(op int) {
	if ep.committed[op] != 0 {
		ep.dups.Add(1)
		return
	}
	ep.committed[op] = now()
}

// emit publishes op's line of committed output; it runs as an Effect of
// whichever process prints the line.
func (ep *episode) emit(op int, line string) {
	if ep.lines[op] != "" {
		ep.dups.Add(1)
		return
	}
	ep.lines[op] = line
}

// tracer returns a span recorder for one process, nil when untraced.
// Call it from build, not from a body.
func (ep *episode) tracer(name string) *tracer {
	if ep.obs == nil {
		return nil
	}
	t := &tracer{name: name, spans: make([]span, 0, 1024)}
	ep.tracers = append(ep.tracers, t)
	return t
}

// result is what one episode contributes.
type result struct {
	attempted, failed int
	committed         int
	setup             time.Duration // build + barrier + teardown
	makespan          time.Duration // first issue → last commit
	p50, p90, denyP50 float64       // commit latency, µs
	cpu               time.Duration // user+sys over the measured window
	mallocs, bytes    uint64        // heap allocations over the window
	retained          int64         // live heap the quiet program holds
	execs             int64         // op code executions
	lat               []int64       // every committed op's latency, ns
	err               error
}

// memNow reads the allocator's counters.
func memNow() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	return int64(memNow().HeapAlloc)
}

// runEpisode runs one episode of wl under a watchdog: an episode that
// errs or outlives deadline is abandoned with every op counted failed,
// its runtimes' state goes to stderr, and the caller carries on with
// fresh runtimes.
func runEpisode(wl *workload, in int64, traced bool, deadline time.Duration) (*episode, result) {
	ep := newEpisode(wl, in, traced)
	res := result{attempted: wl.ops, failed: wl.ops}
	build := wl.prepare(ep)
	heap0 := liveHeap()

	t0 := now()
	inst, err := build()
	if err != nil {
		res.err = fmt.Errorf("%s: build: %w", wl.name, err)
		if inst != nil {
			_ = inst.close() // the build error is what gets reported
		}
		return ep, res
	}
	res.setup = time.Duration(now() - t0)

	stop := make(chan struct{})
	mem0, cpu0 := memNow(), cpuTime()
	done := make(chan error, 1)
	go func() {
		if err := inst.start(); err != nil {
			done <- err
			return
		}
		done <- inst.wait(stop)
	}()
	timer := time.NewTimer(deadline)
	select {
	case err = <-done:
		timer.Stop()
	case <-timer.C:
		err = fmt.Errorf("no completion within %v", deadline)
	}
	cpu1, mem1 := cpuTime(), memNow()
	if err != nil {
		res.err = fmt.Errorf("%s: episode abandoned: %w", wl.name, err)
		fmt.Fprintf(os.Stderr, "%v\n%s", res.err, inst.debug())
		close(stop)
		_ = inst.close() // abandoned: the episode already counts as failed
		return ep, res
	}
	res.cpu = cpu1 - cpu0
	res.mallocs = mem1.Mallocs - mem0.Mallocs
	res.bytes = mem1.TotalAlloc - mem0.TotalAlloc
	res.retained = liveHeap() - heap0

	t1 := now()
	err = inst.barrier(deadline)
	ep.harness.end(spBarrier, -1, t1)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	for _, rt := range inst.rts {
		for _, werr := range rt.Wait() {
			if err == nil && !errors.Is(werr, engine.ErrShutdown) {
				err = werr
			}
		}
	}
	res.setup += time.Duration(now() - t1)
	if err != nil {
		res.err = fmt.Errorf("%s: teardown: %w", wl.name, err)
		fmt.Fprintln(os.Stderr, res.err)
		return ep, res
	}
	if inst.check != nil {
		if err := inst.check(); err != nil {
			res.err = fmt.Errorf("%s: oracle: %w", wl.name, err)
			fmt.Fprintln(os.Stderr, res.err)
			return ep, res
		}
	}
	ep.score(&res)
	return ep, res
}

// score compares the committed output with the reference, line by line,
// and derives the episode's latencies from the stamps. An op counts as
// committed only when its line is byte-identical to the reference.
func (ep *episode) score(res *result) {
	first, last := int64(0), int64(0)
	var deny []int64
	res.failed = 0
	for op := range ep.want {
		res.execs += int64(ep.execs[op])
		if ep.committed[op] == 0 || ep.lines[op] != ep.want[op] {
			res.failed++
			continue
		}
		res.committed++
		d := ep.committed[op] - ep.issued[op]
		res.lat = append(res.lat, d)
		if ep.denied[op] {
			deny = append(deny, d)
		}
		if first == 0 || ep.issued[op] < first {
			first = ep.issued[op]
		}
		if ep.committed[op] > last {
			last = ep.committed[op]
		}
	}
	if n := int(ep.dups.Load()); n > 0 {
		res.failed += n
		res.err = fmt.Errorf("%d ops committed twice", n)
	}
	if res.failed > 0 && res.err == nil {
		res.err = fmt.Errorf("%d of %d ops missing or different from the reference output", res.failed, len(ep.want))
	}
	res.makespan = time.Duration(last - first)
	res.denyP50 = quantileNs(deny, 0.5) / 1e3
	res.p50 = quantileNs(res.lat, 0.5) / 1e3
	res.p90 = quantileNs(res.lat, 0.9) / 1e3
}

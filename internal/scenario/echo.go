package scenario

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"hope/internal/engine"
	"hope/internal/rpc"
)

// AccuracyTrace returns n booleans where each is true with probability
// accuracy — the per-call prediction outcomes for a streamed-RPC
// caller, a pure function of the seed.
func AccuracyTrace(n int, accuracy float64, seed int64) []bool {
	rng := rand.New(rand.NewSource(seed))
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Float64() < accuracy
	}
	return out
}

// Echo issues one call per trace entry at an echo server `latency`
// away: call i sends i and, when streamed, predicts i where the trace
// says the prediction is right and -1 where it says wrong. verifiers
// sizes the caller's WorryWart pool (0 = rpc's default). The caller
// prints every reply, so the committed output is 0..n-1 in every mode,
// under any pool size and any engine option — a speculation policy
// (E15's controller) rides opts.
func Echo(trace []bool, latency time.Duration, mode Mode, verifiers int, opts ...engine.Option) (Result, error) {
	rt := engine.New(append([]engine.Option{
		engine.WithOutput(io.Discard),
		engine.WithLatency(func(from, to string) time.Duration { return latency }),
	}, opts...)...)
	defer rt.Shutdown()

	serve := rpc.Serve
	if mode == Ordered {
		serve = rpc.ServeOrdered
	}
	if err := serve(rt, "svc", func(req any) any { return req }); err != nil {
		return Result{}, err
	}
	client, err := rpc.NewClient(rt, "caller", rpc.WithVerifiers(verifiers))
	if err != nil {
		return Result{}, err
	}

	start := time.Now()
	if err := rt.Spawn("caller", func(p *engine.Proc) error {
		s := client.Session(p)
		for i, accurate := range trace {
			var got any
			var err error
			if mode == Sync {
				got, err = s.Call("svc", i)
			} else {
				predicted := i
				if !accurate {
					predicted = -1 // deliberately wrong
				}
				got, _, err = s.StreamCall("svc", i, predicted)
			}
			if err != nil {
				return err
			}
			p.Printf("%d\n", got)
		}
		return nil
	}); err != nil {
		return Result{}, err
	}
	elapsed, err := Settle(rt, start)
	if err != nil {
		return Result{}, err
	}
	return Result{Elapsed: elapsed, Note: fmt.Sprintf("%d echo calls", len(trace))}, nil
}

// EchoStream is the registered echo workload: `calls` streamed calls at
// the ordered echo server under 200 µs latency, three predictions in
// four right.
func EchoStream(calls int, opts ...engine.Option) (Result, error) {
	if calls <= 0 {
		calls = 96
	}
	return Echo(AccuracyTrace(calls, 0.75, 11), 200*time.Microsecond, Ordered, 0, opts...)
}

// Package rpc builds remote procedure calls on the HOPE runtime and
// implements Call Streaming — the optimistic transformation of Figures 1
// and 2 of the paper (after Bacon & Strom [1]): a synchronous RPC is
// split into an asynchronous request plus an optimistic assumption about
// its reply, so the caller proceeds immediately while a companion
// "WorryWart" process verifies the assumption in parallel. Each WorryWart
// is an engine.Loop over one call counter, so it keeps one step's log.
//
// A synchronous call (Session.Call) blocks for a full round trip. A
// streamed call (Session.StreamCall) returns the caller's predicted reply
// at once under a fresh assumption; the WorryWart performs the real call,
// affirms the assumption when the prediction was right, and denies it —
// rolling the caller back to the StreamCall, which then returns the
// actual reply — when it was wrong. All cross-process consistency
// (orphaned re-sent jobs, speculative replies, chained stream calls) is
// inherited from HOPE's tagging and dependency tracking; this package
// adds only the protocol envelopes.
//
// Two details keep the protocol live under the paper's §5.6 conservative
// approximation (rollback of a speculative affirm becomes a deny):
//
//  1. The WorryWart uses selective receive (Proc.RecvMatch), so it never
//     becomes causally dependent on assumptions newer than the call it is
//     verifying — its affirm of call k depends only on calls before k.
//  2. After affirming, the WorryWart checks Proc.Outcome: if the
//     assumption nevertheless ended up denied (its affirm was undone by a
//     cascaded rollback), it pushes the actual reply so the caller's
//     pessimistic path cannot starve.
//
// The verifier pool also bounds how far a caller runs ahead unverified:
// a StreamCall first waits for the verdict of the call its verifier is
// still checking, so at most one pool's worth of calls is outstanding,
// and a misprediction re-runs live only the calls issued after it
// (DESIGN.md, "Speculation horizon = verifier pool").
//
// # Choosing a server discipline
//
// Serve/ServeStateful process requests optimistically: fastest settlement
// when predictions are accurate, but under mispredictions the server's
// accumulated reply tags can link calls into speculative-resolution
// cycles that never commit (a liveness gap of the underlying model —
// DESIGN.md, finding 4). ServeOrdered/ServeOrderedStateful consume only
// committed requests, keeping resolution dependencies well-founded:
// always live, at the cost of serializing verification. Rule of thumb:
// optimistic for accuracy≈1.0 pipelines, ordered otherwise.
package rpc

import (
	"errors"
	"fmt"
	"reflect"

	"hope/internal/engine"
)

// Request is the server-bound envelope. Exported so alternative server
// implementations can speak the protocol.
type Request struct {
	CallID  int
	ReplyTo string
	Payload any
}

// Reply is the response envelope.
type Reply struct {
	CallID  int
	Payload any
}

// streamJob asks the WorryWart to verify one streamed call.
type streamJob struct {
	CallID     int
	Server     string
	Req        any
	Predicted  any
	Assumption engine.AID
}

// actual carries the true reply of a failed streamed call back to the
// owner, consumed by the pessimistic path of StreamCall.
type actual struct {
	CallID  int
	Payload any
}

// Handler computes a reply from a request payload. It must be
// deterministic and must NOT close over mutable state: rollback replays
// the server body, re-invoking the handler for replayed requests. For
// stateful servers use ServeStateful, whose factory rebuilds the state
// for each replay.
type Handler func(req any) any

// Serve spawns a server process that answers Request envelopes with the
// (stateless) handler until the runtime shuts down.
func Serve(rt *engine.Runtime, name string, h Handler) error {
	return ServeStateful(rt, name, func() Handler { return h })
}

// ServeStateful spawns a server whose handler may keep mutable state: the
// factory runs at the start of every body attempt, so replay rebuilds the
// state deterministically by re-applying the surviving request prefix.
func ServeStateful(rt *engine.Runtime, name string, factory func() Handler) error {
	return serve(rt, name, factory, (*engine.Proc).Recv)
}

// ServeOrderedStateful spawns a pessimistic server: it consumes requests
// through RecvSettled, serving only requests whose assumptions have fully
// committed. The server itself never becomes speculative, so its replies
// carry no assumption tags and a misprediction in one client call can
// never cascade into another through the server. The price is that
// verification of call k waits for call k-1's commitment — settlement
// serializes at one round trip per call, while the caller still runs
// ahead speculatively.
//
// This is the ablation partner of ServeStateful (the optimistic server):
// optimistic servers settle a fully-accurate call stream in ~1 RTT but
// cascade on mispredictions; ordered servers settle in n RTTs but degrade
// gracefully. Experiment E3 quantifies the crossover.
func ServeOrderedStateful(rt *engine.Runtime, name string, factory func() Handler) error {
	return serve(rt, name, factory, (*engine.Proc).RecvSettled)
}

// serve is the one server loop: it answers each Request that recv
// returns until the runtime shuts down.
func serve(rt *engine.Runtime, name string, factory func() Handler, recv func(*engine.Proc) (engine.Msg, error)) error {
	return rt.Spawn(name, func(p *engine.Proc) error {
		h := factory()
		for {
			m, err := recv(p)
			if err != nil {
				if errors.Is(err, engine.ErrShutdown) {
					return nil
				}
				return err
			}
			req, ok := m.Payload.(Request)
			if !ok {
				return fmt.Errorf("rpc server %q: unexpected message %T", name, m.Payload)
			}
			if err := p.Send(req.ReplyTo, Reply{CallID: req.CallID, Payload: h(req.Payload)}); err != nil {
				return err
			}
		}
	})
}

// ServeOrdered is ServeOrderedStateful for a stateless handler.
func ServeOrdered(rt *engine.Runtime, name string, h Handler) error {
	return ServeOrderedStateful(rt, name, func() Handler { return h })
}

// Client owns the WorryWart verifier pool for one caller process. Create
// it before spawning the owner.
type Client struct {
	rt        *engine.Runtime
	owner     string
	verifiers int
	// names[i] is the pool worker handling calls with id ≡ i (mod pool),
	// built once so a call formats nothing.
	names []string
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithVerifiers sets the WorryWart pool size (default 8). Pool size
// bounds how many calls verify concurrently; each verifier handles the
// calls assigned to it strictly in order. It is also the caller's
// speculation horizon: a StreamCall first waits for the verdict of the
// call pool-size calls back, so a misprediction re-runs live at most
// pool-size − 1 later calls.
func WithVerifiers(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.verifiers = n
		}
	}
}

// NewClient registers the WorryWart verifier pool for the named owner and
// returns the client handle. The owner process itself is spawned by the
// caller.
//
// Why a pool rather than one pipelined verifier: a verifier must not
// consume call k+1's job before resolving call k, or its affirm of call k
// becomes speculatively dependent on call k+1 (Equation 3 taints whole
// intervals) — then one misprediction anywhere rolls every call back.
// Pool workers take one job at a time, so an affirm of call k depends
// only on calls before k, and Lemma 6.1 commits accurate prefixes in
// order while denials roll back exactly the dependent suffix.
func NewClient(rt *engine.Runtime, owner string, opts ...ClientOption) (*Client, error) {
	c := &Client{rt: rt, owner: owner, verifiers: 8}
	for _, o := range opts {
		o(c)
	}
	c.names = make([]string, c.verifiers)
	for i := range c.names {
		c.names[i] = fmt.Sprintf("%s#ww%d", owner, i)
		err := engine.Loop(rt, c.names[i], func() *int { return new(int) },
			func(n *int) *int { v := *n; return &v }, c.verify)
		if err != nil {
			return nil, fmt.Errorf("spawn worrywart %d: %w", i, err)
		}
	}
	return c, nil
}

// verify is one step of a verification worker (the paper's WorryWart
// process): it performs the next assigned streamed call synchronously —
// consuming the next job only after resolving the previous one — and
// resolves the call's assumption. nextID numbers its calls to servers.
func (c *Client) verify(p *engine.Proc, nextID *int) error {
	m, err := p.RecvMatch(func(v any) bool { _, ok := v.(streamJob); return ok })
	if err != nil {
		return err
	}
	job := m.Payload.(streamJob)

	// The real call (S1 of Figure 2), performed while the caller races
	// ahead.
	*nextID++
	id := *nextID
	if err := p.Send(job.Server, Request{CallID: id, ReplyTo: p.Name(), Payload: job.Req}); err != nil {
		return err
	}
	rm, err := p.RecvMatch(func(v any) bool {
		r, ok := v.(Reply)
		return ok && r.CallID == id
	})
	if err != nil {
		return err
	}
	got := rm.Payload.(Reply).Payload

	push := false
	if reflect.DeepEqual(job.Predicted, got) {
		switch err := p.Affirm(job.Assumption); {
		case errors.Is(err, engine.ErrConflict):
			push = true // already denied elsewhere
		case err != nil:
			return fmt.Errorf("affirm %v: %w", job.Assumption, err)
		}
		// The affirm may have been stale (§5.6: a cascaded rollback
		// already converted it to a deny). If the assumption stands
		// denied, the caller is on its pessimistic path and needs the
		// actual reply.
		if resolved, affirmed := p.Outcome(job.Assumption); resolved && !affirmed {
			push = true
		}
	} else {
		if err := p.Deny(job.Assumption); err != nil && !errors.Is(err, engine.ErrConflict) {
			return fmt.Errorf("deny %v: %w", job.Assumption, err)
		}
		push = true
	}
	if !push {
		return nil
	}
	return p.Send(c.owner, actual{CallID: job.CallID, Payload: got})
}

// Session binds a Client to one invocation of the owner's body. Create it
// at the top of the body function — its call counter and horizon ring are
// rebuilt deterministically on replay.
type Session struct {
	c    *Client
	p    *engine.Proc
	next int
	// ring[i] is the assumption of the last streamed call handed to
	// verifier names[i]: the call the next one it gets queues behind.
	ring []engine.AID
}

// Session creates the per-body-invocation session.
func (c *Client) Session(p *engine.Proc) *Session {
	return &Session{c: c, p: p, ring: make([]engine.AID, len(c.names))}
}

// Call performs a synchronous RPC: a full round trip, the Figure 1
// baseline.
func (s *Session) Call(server string, req any) (any, error) {
	s.next++
	id := s.next
	if err := s.p.Send(server, Request{CallID: id, ReplyTo: s.c.owner, Payload: req}); err != nil {
		return nil, err
	}
	m, err := s.p.RecvMatch(func(v any) bool {
		r, ok := v.(Reply)
		return ok && r.CallID == id
	})
	if err != nil {
		return nil, err
	}
	return m.Payload.(Reply).Payload, nil
}

// StreamCall performs an optimistic RPC: it returns predicted immediately
// (speculatively), dispatching the real call to the WorryWart. If the
// prediction was wrong the caller is rolled back to this point and
// StreamCall returns the actual reply with accurate=false. Everything the
// caller did with the wrong value — including messages to other processes
// — is undone by HOPE's dependency tracking.
//
// The caller runs at most one pool's worth of calls ahead of its
// verdicts: call id first waits until the assumption of call id−verifiers
// is affirmed or denied. That is the call its verifier is still checking,
// which the new job would only queue behind. It bounds what a
// misprediction re-runs live past its replayed prefix to the calls
// issued since. The wait logs nothing and is skipped on replay
// (engine.AwaitTerminal). Its cost is the new job's hop to a verifier
// that is already free: hidden behind an ordered server, which
// serializes verification anyway, but on the critical path when the
// verifiers are the bottleneck.
func (s *Session) StreamCall(server string, req, predicted any) (result any, accurate bool, err error) {
	s.next++
	id := s.next
	v := (id - 1) % len(s.ring)
	if prev := s.ring[v]; prev.Valid() {
		if err := engine.AwaitTerminal(s.p, prev); err != nil {
			return nil, false, err
		}
	}
	x := s.p.NewAID()
	s.ring[v] = x
	job := streamJob{CallID: id, Server: server, Req: req, Predicted: predicted, Assumption: x}
	if err := s.p.Send(s.c.names[v], job); err != nil {
		return nil, false, err
	}
	if s.p.Guess(x) {
		return predicted, true, nil
	}
	m, err := s.p.RecvMatch(func(v any) bool {
		a, ok := v.(actual)
		return ok && a.CallID == id
	})
	if err != nil {
		return nil, false, err
	}
	return m.Payload.(actual).Payload, false, nil
}

// Package hope is a Go implementation of HOPE — the Hopefully Optimistic
// Programming Environment of Cowan & Lutfiyya, "Formal Semantics for
// Expressing Optimism: The Meaning of HOPE" (PODC 1995).
//
// HOPE lets a concurrent program trade latency for speculation with four
// primitives over assumption identifiers (AIDs):
//
//	x := p.NewAID()      // create an assumption identifier
//	if p.Guess(x) {      // optimistically assume x is true
//	    // fast path, speculative until x is resolved
//	} else {
//	    // pessimistic path, runs if x is denied
//	}
//	p.Affirm(x)          // confirm the assumption (any process may)
//	p.Deny(x)            // refute it: dependents roll back to their Guess
//	p.FreeOf(x)          // assert this computation never depends on x
//
// Dependency tracking is automatic: messages carry the sender's assumption
// set, receivers implicitly guess those assumptions, and a Deny rolls back
// every transitive dependent across processes — exactly the semantics the
// paper proves correct (its Lemma 5.1 through Theorem 6.3 are
// machine-verified against internal/semantics by internal/check).
//
// # Error taxonomy
//
// Every exported error composes with errors.Is, and each falls into one
// of two classes. Retryable errors report a transient condition the body
// may handle and continue from:
//
//   - ErrTimeout: RecvTimeout's deadline elapsed with no deliverable
//     message. Timeouts are logged, so a rollback replays the same
//     verdict instead of re-waiting.
//   - ErrDelivery: a Send was not delivered (only under fault
//     injection). Retry with SendRetry or fall back.
//
// Fatal errors mean the process cannot make further progress and should
// return, propagating the error or nil:
//
//   - ErrShutdown: the runtime is shutting down.
//   - ErrConflict: conflicting Affirm/Deny on one assumption — a
//     program bug (the paper's §5.2 user error).
//   - ErrNondeterministic: the body diverged under replay, violating
//     the piecewise-determinism contract — a program bug.
//   - ErrDuplicateProc, ErrUnknownDest: configuration errors — a
//     second Spawn of one name; a Send the wire placement cannot route,
//     or Wait's report of a name that was sent to but never spawned. A
//     Send to a name spawned later is not an error: it waits for Spawn.
//
// # Fault injection
//
// A FaultPlan (NewFaultPlan or ParseFaults, attached as Policy.Faults)
// deterministically injects process crashes, message drops, duplicates,
// extra delays, and resolution stalls, every decision a pure function of
// the plan's seed. Crashed processes restart by replay, duplicates are
// suppressed at the receiver, and drops surface as ErrDelivery — so a
// correct program's committed output is byte-identical with and without
// faults. See internal/fault and DESIGN.md.
//
// # Checkpointing
//
// Rollback and crash recovery normally re-execute a body from the top,
// replaying its whole retained log. Proc.Checkpoint(state) records a
// recovery point inside the log: recovery restores from the newest
// checkpoint before the rollback target and replays only the suffix.
// Policy.CheckpointEvery does this automatically for Loop processes.
// The state passed to Checkpoint must be a self-contained, deep-copied
// snapshot — it is handed back verbatim by Proc.Restored on the next
// attempt, so state that aliases memory mutated later would corrupt the
// recovery point (hopevet's escape pass flags this). A body that calls
// Checkpoint must consult Restored before its first logged operation.
//
// # Writing processes
//
// A process body is a function of a *Proc handle. All nondeterminism must
// flow through the handle (Guess, Recv, NewAID, Rand), all messaging
// through Send/Recv, and all externally visible actions through
// Effect/Printf — because rollback re-executes the body, replaying the
// surviving prefix from a log. Keep mutable state local to the body.
//
// # Counting what happened
//
// The runtime keeps one counter registry, the Observer: attach one with
// Policy.Observer and read its Snapshot for guesses, resolutions,
// committed and rolled-back intervals, replay and delivery counts, and
// its SiteStats for per-site admissions and verdicts.
//
// # Example
//
//	rt := hope.New()
//	rt.Spawn("worker", func(p *hope.Proc) error {
//	    x := p.NewAID()
//	    if err := p.Send("verifier", x); err != nil {
//	        return err
//	    }
//	    if p.Guess(x) {
//	        p.Printf("optimistic result\n") // printed only if x affirmed
//	        return nil
//	    }
//	    p.Printf("pessimistic result\n")
//	    return nil
//	})
//	rt.Spawn("verifier", func(p *hope.Proc) error {
//	    m, _ := p.Recv()
//	    return p.Affirm(m.Payload.(hope.AID))
//	})
//	rt.Wait()
package hope

import (
	"io"
	"time"

	"hope/internal/engine"
	"hope/internal/fault"
	"hope/internal/obs"
	"hope/internal/policy"
)

// Runtime hosts one distributed HOPE program.
type Runtime = engine.Runtime

// Proc is the handle a process body uses for all HOPE interactions.
type Proc = engine.Proc

// AID identifies one optimistic assumption.
type AID = engine.AID

// Msg is a received message.
type Msg = engine.Msg

// Option configures a Runtime.
type Option = engine.Option

// Exported errors. See the package comment's error-taxonomy section for
// which are retryable and which are fatal.
var (
	// ErrShutdown is returned by Recv after Shutdown.
	ErrShutdown = engine.ErrShutdown
	// ErrConflict reports conflicting affirm/deny on one assumption
	// (the paper's §5.2 user error).
	ErrConflict = engine.ErrConflict
	// ErrNondeterministic reports a process body that diverged under
	// replay, violating the piecewise-determinism contract.
	ErrNondeterministic = engine.ErrNondeterministic
	// ErrDuplicateProc reports a duplicate Spawn name.
	ErrDuplicateProc = engine.ErrDuplicateProc
	// ErrUnknownDest reports a destination with no process: a Send the
	// wire placement cannot route (no placement, or an unknown node),
	// or, from Wait, a name that was sent to but never spawned.
	ErrUnknownDest = engine.ErrUnknownDest
	// ErrTimeout is returned by RecvTimeout when the deadline elapses
	// before a deliverable message arrives. Retryable.
	ErrTimeout = engine.ErrTimeout
	// ErrDelivery is returned by Send when fault injection drops the
	// message. Retryable — use SendRetry or fall back.
	ErrDelivery = engine.ErrDelivery
)

// New creates a runtime.
func New(opts ...Option) *Runtime { return engine.New(opts...) }

// Policy bundles a runtime's configuration into one declarative value:
// the preferred way to configure a Runtime. Zero fields keep their
// defaults, so policies compose — New(WithPolicy(base), WithPolicy(p))
// applies base first, then p's non-zero fields on top.
type Policy struct {
	// Output receives committed Printf output (default os.Stdout).
	Output io.Writer
	// Latency models one-way message delay between named processes
	// (default: synchronous delivery).
	Latency func(from, to string) time.Duration
	// Shards sets the shard count of the dependency tracker and the
	// delivery-scheduler pool. The default (<= 0) is the next power of
	// two >= GOMAXPROCS; values round up to a power of two and cap at
	// 64. Shard count changes scaling, never behavior: one shard
	// reproduces the single-lock configuration verdict-for-verdict.
	Shards int
	// Faults arms fault injection: processes crash and restart by
	// replay, messages are dropped (surfacing as ErrDelivery),
	// duplicated, and delayed, and resolutions stall — all
	// deterministically from the plan's seed. Committed output is
	// unaffected for correct programs.
	Faults *FaultPlan
	// Observer attaches an observability sink. Observation is strictly
	// runtime-side and cannot perturb replay; nil keeps the built-in
	// no-op sink. The runtime builds none of its own, and the
	// speculation policy learns without one.
	Observer *Observer
	// CheckpointEvery arms automatic checkpointing for Loop processes:
	// once k logged events accumulate past a process's last checkpoint
	// while speculation keeps its log alive, the next step boundary
	// checkpoints the loop state, so a deep rollback or crash recovery
	// restores a recent step and replays at most ~k events instead of
	// the whole window. k <= 0 (the default) disables automatic
	// checkpoints; explicit Proc.Checkpoint calls work either way.
	// Checkpoints never change committed output — only recovery cost.
	// See the Checkpointing section of the package documentation for
	// the state-capture contract.
	CheckpointEvery int
	// Speculation selects how eagerly Guess speculates (default
	// AlwaysOn — the paper's unconditional optimism).
	Speculation SpeculationPolicy
}

// WithPolicy applies every non-zero field of pol. Later options win
// where they overlap.
func WithPolicy(pol Policy) Option {
	return func(r *Runtime) {
		if pol.Output != nil {
			engine.WithOutput(pol.Output)(r)
		}
		if pol.Latency != nil {
			engine.WithLatency(pol.Latency)(r)
		}
		if pol.Shards != 0 {
			engine.WithShards(pol.Shards)(r)
		}
		if pol.Faults != nil {
			engine.WithFaults(pol.Faults)(r)
		}
		if pol.Observer != nil {
			engine.WithObserver(pol.Observer)(r)
		}
		if pol.CheckpointEvery != 0 {
			engine.WithCheckpointEvery(pol.CheckpointEvery)(r)
		}
		if c := pol.Speculation.controller(); c != nil {
			engine.WithSpeculation(c)(r)
		}
	}
}

// SpeculationPolicy selects how eagerly Guess speculates. The zero value
// is AlwaysOn(). Construct with AlwaysOn, AlwaysOff, or Adaptive.
//
// Whatever the policy, a program's committed output is identical to its
// always-on output: a guess that does not speculate waits for its
// assumption's real verdict and takes the same branch a denial's
// rollback would have produced, and every verdict is recorded in the
// replay log, so rollback and crash recovery reproduce each decision
// without consulting the policy again. Policies change latency and
// wasted work, never results.
type SpeculationPolicy struct {
	mode int // 0 always-on, 1 always-off, 2 adaptive
	cfg  AdaptiveConfig
}

// AlwaysOn speculates every guess unconditionally — the paper's
// semantics, and the zero-value default. No admission layer is attached:
// the guess path is byte-identical to prior releases.
func AlwaysOn() SpeculationPolicy { return SpeculationPolicy{} }

// AlwaysOff suppresses speculation: every guess waits (up to the default
// wait budget) for its assumption's real verdict and returns it. The
// pessimistic baseline — useful for differential runs and for workloads
// whose guesses are usually wrong.
func AlwaysOff() SpeculationPolicy { return SpeculationPolicy{mode: 1} }

// Adaptive closes the loop from observed accuracy to guess policy: a
// per-site estimator decays each Guess call site's affirm/deny history,
// and an admission controller throttles, then disables, sites whose
// accuracy falls below the crossover where speculation stops paying —
// while probe guesses keep estimates fresh so recovered sites turn back
// on. See AdaptiveConfig and internal/policy.
func Adaptive(cfg AdaptiveConfig) SpeculationPolicy {
	return SpeculationPolicy{mode: 2, cfg: cfg}
}

// AdaptiveConfig tunes the Adaptive speculation policy. The zero value
// selects the documented defaults.
type AdaptiveConfig struct {
	// Crossover is the accuracy below which speculation is throttled
	// (default 0.75 — the E3 break-even point).
	Crossover float64
	// Hysteresis pads state transitions to prevent flapping
	// (default 0.05).
	Hysteresis float64
	// Window is the decayed sample window per site (default 64).
	Window int
	// MinSamples is the evidence floor before a site may be throttled
	// (default 8): fresh sites speculate.
	MinSamples int
	// ProbeEvery admits one probe guess per this many at a disabled
	// site, keeping its estimate alive (default 8).
	ProbeEvery int
	// WaitBudget bounds how long a non-speculating guess waits for its
	// real verdict before speculating anyway (default 2ms; negative
	// waits indefinitely).
	WaitBudget time.Duration
	// Inventory optionally seeds the controller with static site
	// features from a `hopevet -inventory` JSON document: sites the
	// analyzer proves are resolved only by the guessing process itself
	// are pinned always-on (a pessimistic wait there could only ever be
	// released by its budget).
	Inventory []byte
}

// controller builds the internal admission controller, nil for AlwaysOn.
func (s SpeculationPolicy) controller() *policy.Controller {
	pc := policy.Config{
		Crossover:  s.cfg.Crossover,
		Hysteresis: s.cfg.Hysteresis,
		Window:     s.cfg.Window,
		MinSamples: s.cfg.MinSamples,
		ProbeEvery: s.cfg.ProbeEvery,
		WaitBudget: s.cfg.WaitBudget,
		Inventory:  s.cfg.Inventory,
	}
	switch s.mode {
	case 1:
		return policy.AlwaysOff(pc)
	case 2:
		return policy.NewAdaptive(pc)
	default:
		return nil
	}
}

// SiteStat is one Guess call site's row in the observer's per-site
// registry: guess/admission counts, verdict tallies, and the admission
// controller's state and accuracy estimate (see Observer.SiteStats).
type SiteStat = obs.SiteStat

// ErrStopLoop stops a Loop process cleanly when returned by its step
// function.
var ErrStopLoop = engine.ErrStopLoop

// Loop spawns a long-running process with bounded replay-log memory: the
// body is structured as repeated steps over explicit state, and whenever
// the process is definite at a step boundary the engine replaces the
// settled log with one checkpoint of the state, so rollback replays only
// the speculation window since that boundary. With Policy.CheckpointEvery,
// long speculation windows are additionally checkpointed on a cadence,
// bounding recovery cost in the window length too. init builds the
// initial state, clone must deep-copy it, and step follows the usual
// piecewise-determinism contract. See engine.Loop.
func Loop[S any](rt *Runtime, name string, init func() S, clone func(S) S, step func(*Proc, S) error) error {
	return engine.Loop(rt, name, init, clone, step)
}

// Observer is a runtime observability sink: metrics plus a ring-buffered
// speculation-lifecycle event stream. See internal/obs.
type Observer = obs.Observer

// ObsEvent is one recorded speculation-lifecycle event.
type ObsEvent = obs.Event

// ObserverOption configures an Observer at construction.
type ObserverOption = obs.Option

// NewObserver creates an observability sink. Pass it to the runtime as
// Policy.Observer, then read it at any time: Snapshot/WriteJSON for metrics,
// Events for the lifecycle stream, WriteChromeTrace for a Perfetto
// timeline, Dump for a terminal summary.
func NewObserver(opts ...ObserverOption) *Observer { return obs.New(opts...) }

// WithEventCapacity sets the observer's event-ring capacity (default
// 8192; 0 keeps metrics only).
func WithEventCapacity(n int) ObserverOption { return obs.WithEventCapacity(n) }

// FaultPlan is a deterministic, seed-driven fault-injection plan. Every
// injection decision is a pure function of (seed, site, occurrence), so
// a failing run reproduces exactly from its seed.
type FaultPlan = fault.Plan

// FaultConfig sets per-class fault rates for a FaultPlan.
type FaultConfig = fault.Config

// FaultInjection records one injected fault.
type FaultInjection = fault.Injection

// NewFaultPlan builds a fault plan from a config.
func NewFaultPlan(cfg FaultConfig) *FaultPlan { return fault.New(cfg) }

// ParseFaults builds a fault plan from a compact spec string such as
// "seed=7,crash=0.01,drop=0.1,dup=0.05,delay=0.2,stall=0.1" — the same
// syntax cmd/hopetop's -faults flag accepts.
func ParseFaults(spec string) (*FaultPlan, error) { return fault.Parse(spec) }

// RetryPolicy bounds Proc.SendRetry: up to Attempts tries with linear
// backoff (i×Backoff before try i).
type RetryPolicy = engine.RetryPolicy

// DrainPolicy selects how Runtime.ShutdownDrain settles outstanding
// speculation before shutting down.
type DrainPolicy = engine.DrainPolicy

const (
	// DrainDenyUnresolved force-denies every unresolved assumption and
	// rolls dependents onto their pessimistic paths, then shuts down.
	// Terminates regardless of whether resolvers are still running.
	DrainDenyUnresolved = engine.DrainDenyUnresolved
	// DrainWaitSettled blocks until every assumption is resolved and
	// all processes are definite, then shuts down. Requires the program
	// itself to resolve its assumptions.
	DrainWaitSettled = engine.DrainWaitSettled
)

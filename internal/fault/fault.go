// Package fault is the deterministic fault-injection layer of the HOPE
// runtime: a seed-driven Plan that decides, at instrumented points in the
// engine, whether to crash a process, drop/duplicate/delay a message, or
// stall a resolution.
//
// The paper's Theorems 5.1–6.3 guarantee that whatever the interleaving,
// denied assumptions roll back completely and the committed behaviour is
// exactly what a pessimistic execution would produce. That guarantee is an
// executable oracle: run a workload under an adversarial Plan and the
// committed Printf/Effect output must be byte-identical to the fault-free
// run. This package supplies the adversary; internal/scenario's fault
// storm supplies the oracle check.
//
// # Determinism
//
// Every decision is a pure function of (seed, site, n): the site is a
// stable per-entity key — a process name for crashes and stalls, a
// directed link for message faults — and n counts the decisions taken at
// that site so far. Wall-clock interleaving can change which site asks
// first, but never what any site is told: the i-th send on link tx→rx3
// is dropped under seed 7 in every run, on every machine. A Plan is
// therefore reproducible from its spec string alone (see Parse/String),
// which is what makes a failing fault-storm seed a bug report rather
// than a flake.
//
// The Plan holds per-site counters and an injection trace behind one
// mutex; decision points are short and allocation-free on the no-fault
// path.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	sitepkg "hope/internal/site"
)

// Kind classifies one injected fault.
type Kind uint8

const (
	// Crash kills a process at an instrumented point in its attempt
	// loop; the engine restarts it by replaying its log.
	Crash Kind = iota + 1
	// Drop discards a message at send time; the sender sees a retryable
	// delivery error.
	Drop
	// Dup delivers a message twice; the engine's per-link duplicate
	// filter must suppress the copy.
	Dup
	// Delay adds extra latency to one delivery.
	Delay
	// Stall delays an Affirm/Deny/FreeOf resolution, widening the
	// speculation window it would close.
	Stall
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Drop:
		return "drop"
	case Dup:
		return "dup"
	case Delay:
		return "delay"
	case Stall:
		return "stall"
	default:
		return "invalid"
	}
}

// Config holds the knobs a Plan is built from. Rates are probabilities in
// [0, 1] evaluated independently at each decision point; zero disables
// that fault class.
type Config struct {
	// Seed selects the pseudo-random decision stream. Two Plans with the
	// same Config make identical decisions at every site.
	Seed int64
	// Crash is the per-checkpoint probability of killing a process at an
	// instrumented point (each primitive entry in live execution).
	Crash float64
	// MaxCrashes caps injected crashes per process (0 = unlimited); a
	// safety valve against pathological rates starving progress.
	MaxCrashes int
	// Drop is the per-send probability of discarding a message; the
	// sender sees ErrDelivery and may retry.
	Drop float64
	// Dup is the per-delivery probability of delivering a message twice.
	Dup float64
	// Delay is the per-delivery probability of adding extra latency.
	Delay float64
	// MaxDelay bounds the injected extra latency (default 1ms when Delay
	// is set).
	MaxDelay time.Duration
	// Stall is the per-resolution probability of delaying an
	// Affirm/Deny/FreeOf before it commits.
	Stall float64
	// MaxStall bounds the injected resolution delay (default 1ms when
	// Stall is set).
	MaxStall time.Duration
}

// withDefaults fills in magnitude defaults for enabled fault classes.
func (c Config) withDefaults() Config {
	if c.Delay > 0 && c.MaxDelay <= 0 {
		c.MaxDelay = time.Millisecond
	}
	if c.Stall > 0 && c.MaxStall <= 0 {
		c.MaxStall = time.Millisecond
	}
	return c
}

// Injection records one injected fault.
type Injection struct {
	// Kind is the fault class.
	Kind Kind
	// Site is the per-entity decision stream the fault came from, e.g.
	// "crash/worker" or "drop/tx→rx3".
	Site string
	// N is the decision's sequence number within its site (0-based over
	// all decisions at the site, injected or not).
	N uint64
	// Dur is the injected delay for Delay and Stall faults.
	Dur time.Duration
}

// String renders the injection compactly.
func (i Injection) String() string {
	if i.Dur > 0 {
		return fmt.Sprintf("%s#%d(%v)", i.Site, i.N, i.Dur)
	}
	return fmt.Sprintf("%s#%d", i.Site, i.N)
}

// Plan is one reproducible fault schedule: construct it with New (or
// Parse), attach it to a runtime with engine.WithFaults / hope.WithFaults,
// and read back what it injected with Injections and Counts. Each site
// must be decided by exactly one runtime, since its counter is part of
// the schedule. A runtime decides the sites of the processes it hosts
// (their crashes, stalls and outbound links), so runtimes hosting
// disjoint processes may share one Plan. The nil *Plan injects nothing.
type Plan struct {
	cfg Config

	mu       sync.Mutex
	counters map[string]uint64
	crashes  map[string]int
	trace    []Injection
	counts   [Stall + 1]int64
}

// New builds a Plan from cfg.
func New(cfg Config) *Plan {
	return &Plan{
		cfg:      cfg.withDefaults(),
		counters: make(map[string]uint64),
		crashes:  make(map[string]int),
	}
}

// Config returns the plan's (default-filled) configuration.
func (p *Plan) Config() Config {
	if p == nil {
		return Config{}
	}
	return p.cfg
}

// splitmix64 is the SplitMix64 finalizer: a full-avalanche mix of one
// 64-bit word, the standard seed-expansion primitive.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d4a2c5f9b4e1b5
	return z ^ (z >> 31)
}

// roll returns the n-th decision word for site: a pure function of
// (seed, site, n), independent of interleaving. Site strings fold through
// the shared internal/site hash — the same identity the inventory and
// the admission controller key on.
func (p *Plan) roll(site string, n uint64) uint64 {
	return splitmix64(uint64(p.cfg.Seed) ^ splitmix64(sitepkg.Hash(site)^splitmix64(n)))
}

// u01 maps a decision word to [0, 1).
func u01(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// next claims the site's next sequence number.
func (p *Plan) next(site string) uint64 {
	n := p.counters[site]
	p.counters[site] = n + 1
	return n
}

// record appends one injection to the trace.
func (p *Plan) record(inj Injection) {
	p.trace = append(p.trace, inj)
	p.counts[inj.Kind]++
}

// decide evaluates one rate-gated decision at site, recording an
// injection of kind when it fires. Caller holds p.mu.
func (p *Plan) decide(kind Kind, site string, rate float64) (uint64, bool) {
	n := p.next(site)
	if rate <= 0 || u01(p.roll(site, n)) >= rate {
		return n, false
	}
	p.record(Injection{Kind: kind, Site: site, N: n})
	return n, true
}

// CrashNow reports whether the named process should crash at this
// checkpoint. The engine calls it once per live primitive entry.
func (p *Plan) CrashNow(proc string) bool {
	if p == nil || p.cfg.Crash <= 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cfg.MaxCrashes > 0 && p.crashes[proc] >= p.cfg.MaxCrashes {
		return false
	}
	_, hit := p.decide(Crash, "crash/"+proc, p.cfg.Crash)
	if hit {
		p.crashes[proc]++
	}
	return hit
}

// DropNow reports whether the next message on the from→to link should be
// discarded at send time.
func (p *Plan) DropNow(from, to string) bool {
	if p == nil || p.cfg.Drop <= 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	_, hit := p.decide(Drop, "drop/"+from+"→"+to, p.cfg.Drop)
	return hit
}

// DupNow reports whether the next delivery on the from→to link should be
// duplicated.
func (p *Plan) DupNow(from, to string) bool {
	if p == nil || p.cfg.Dup <= 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	_, hit := p.decide(Dup, "dup/"+from+"→"+to, p.cfg.Dup)
	return hit
}

// DelayNow returns the extra latency to add to the next delivery on the
// from→to link (0 = none).
func (p *Plan) DelayNow(from, to string) time.Duration {
	if p == nil || p.cfg.Delay <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.duration(Delay, "delay/"+from+"→"+to, p.cfg.Delay, p.cfg.MaxDelay)
}

// StallNow returns how long to stall the named process's next resolution
// before it commits (0 = none).
func (p *Plan) StallNow(proc string) time.Duration {
	if p == nil || p.cfg.Stall <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.duration(Stall, "stall/"+proc, p.cfg.Stall, p.cfg.MaxStall)
}

// duration evaluates a rate-gated magnitude decision: fire with
// probability rate, and when firing pick a duration in (0, max] from an
// independent mix of the same decision word. Caller holds p.mu.
func (p *Plan) duration(kind Kind, site string, rate float64, max time.Duration) time.Duration {
	n := p.next(site)
	h := p.roll(site, n)
	if u01(h) >= rate || max <= 0 {
		return 0
	}
	frac := u01(splitmix64(h))
	d := time.Duration(float64(max) * frac)
	if d <= 0 {
		d = time.Microsecond
	}
	p.record(Injection{Kind: kind, Site: site, N: n, Dur: d})
	return d
}

// Injections returns a copy of the injected-fault trace, sorted by site
// then sequence number — a canonical order independent of wall-clock
// interleaving, so two runs of a deterministic workload under the same
// plan compare equal.
func (p *Plan) Injections() []Injection {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	out := make([]Injection, len(p.trace))
	copy(out, p.trace)
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return out[i].N < out[j].N
	})
	return out
}

// Counts returns the number of injected faults per kind.
func (p *Plan) Counts() map[Kind]int64 {
	out := make(map[Kind]int64)
	if p == nil {
		return out
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := Crash; k <= Stall; k++ {
		if p.counts[k] > 0 {
			out[k] = p.counts[k]
		}
	}
	return out
}

// Total returns the total number of injected faults.
func (p *Plan) Total() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(len(p.trace))
}

// String renders the plan as a spec string that Parse accepts — the
// reproduction recipe printed by failing soak runs.
func (p *Plan) String() string {
	if p == nil {
		return "faults=off"
	}
	c := p.cfg
	parts := []string{fmt.Sprintf("seed=%d", c.Seed)}
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("crash", c.Crash)
	if c.MaxCrashes > 0 {
		parts = append(parts, fmt.Sprintf("maxcrashes=%d", c.MaxCrashes))
	}
	add("drop", c.Drop)
	add("dup", c.Dup)
	add("delay", c.Delay)
	if c.Delay > 0 {
		parts = append(parts, fmt.Sprintf("maxdelay=%v", c.MaxDelay))
	}
	add("stall", c.Stall)
	if c.Stall > 0 {
		parts = append(parts, fmt.Sprintf("maxstall=%v", c.MaxStall))
	}
	return strings.Join(parts, ",")
}

// Parse builds a Plan from a spec string of comma-separated key=value
// pairs: seed=N, crash/drop/dup/delay/stall=RATE, maxdelay/maxstall=DUR,
// maxcrashes=N. Unknown keys are errors. The empty string is a no-fault
// plan with seed 0.
func Parse(spec string) (*Plan, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return New(cfg), nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("fault: bad spec element %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "crash":
			cfg.Crash, err = parseRate(v)
		case "maxcrashes":
			cfg.MaxCrashes, err = strconv.Atoi(v)
		case "drop":
			cfg.Drop, err = parseRate(v)
		case "dup":
			cfg.Dup, err = parseRate(v)
		case "delay":
			cfg.Delay, err = parseRate(v)
		case "maxdelay":
			cfg.MaxDelay, err = time.ParseDuration(v)
		case "stall":
			cfg.Stall, err = parseRate(v)
		case "maxstall":
			cfg.MaxStall, err = time.ParseDuration(v)
		default:
			return nil, fmt.Errorf("fault: unknown spec key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: bad %s value %q: %v", k, v, err)
		}
	}
	return New(cfg), nil
}

func parseRate(v string) (float64, error) {
	r, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if r < 0 || r > 1 {
		return 0, fmt.Errorf("rate outside [0,1]")
	}
	return r, nil
}

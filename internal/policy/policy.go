// Package policy is the adaptive-optimism admission controller: the
// runtime half of the loop from observed guess accuracy to guess policy.
//
// E3 measures speculation's crossover: below roughly 75% guess accuracy
// an optimistic call stream is slower than a synchronous one, because
// every misprediction discards the speculative tail and replays it.
// HOPE's primitives express optimism but nothing in the runtime reacts
// when optimism stops paying. This package reacts: a per-site online
// accuracy estimator (exponentially decayed affirm/deny window, fed by
// the engine with each verdict a guess site earns) drives a
// three-state admission controller — on / throttled / off — that decides
// per Guess whether speculating is worth it. Sites are keyed by the same
// internal/site hash `hopevet -inventory` emits, so the static features
// of the inventory JSON (locality, escape, resolution distance) seed the
// controller before any runtime evidence exists.
//
// # Replay safety
//
// The controller is consulted only during live execution. A denied
// admission makes the engine wait (briefly, bounded by WaitBudget) for
// the assumption's real verdict instead of speculating; whichever way
// the guess then returns, the verdict is recorded in the replay log
// exactly like an ordinary guess result. Replay and crash recovery read
// the log and never consult the controller — the same discipline as
// receives and timeouts — so observable behavior is reproduced
// byte-for-byte however the estimator's state has drifted (the
// Flückiger et al. correctness argument for dynamic deoptimization:
// disabling speculation must be invisible up to timing).
//
// The controller holds decision state only — the estimator, the
// admission state and its cadence, pins and guess attribution. What
// happened at a site (guesses, admissions, verdicts) is counted by
// internal/obs, which the controller never reads.
package policy

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"hope/internal/ids"
)

// State is a site's admission state.
type State int32

const (
	// StateOn admits every guess: speculation is paying.
	StateOn State = iota
	// StateThrottled admits every other guess: accuracy has dropped
	// below the crossover, so half the traffic runs pessimistically
	// while the estimator keeps learning at full rate.
	StateThrottled
	// StateOff denies all but one in ProbeEvery guesses: speculation is
	// clearly net-negative; probes keep a trickle of optimism alive so
	// recovery is detected.
	StateOff
)

// String names the state the way hopetop renders it.
func (s State) String() string {
	switch s {
	case StateOn:
		return "on"
	case StateThrottled:
		return "throttled"
	case StateOff:
		return "off"
	default:
		return "invalid"
	}
}

// Config parameterizes an adaptive controller.
type Config struct {
	// Crossover is the accuracy below which speculation is expected
	// net-negative. Default 0.75 — the E3 crossover.
	Crossover float64
	// Hysteresis is the dead band around each threshold that prevents
	// state flapping. Default 0.05.
	Hysteresis float64
	// Window is the effective sample count of the decayed estimator:
	// the decay factor is 1 - 1/Window. Default 64.
	Window int
	// MinSamples is the decayed weight below which a site is admitted
	// unconditionally — the estimator has no evidence yet. Default 8.
	MinSamples int
	// ProbeEvery admits one in N guesses at an Off site, keeping a
	// trickle of speculation so recovery is observed. Default 8.
	ProbeEvery int
	// WaitBudget bounds the pessimistic wait of a denied admission: if
	// the assumption does not resolve within the budget the engine
	// falls back to speculating (liveness: a site whose AID is resolved
	// by the guessing process itself would otherwise deadlock). Zero
	// selects the default 2ms; negative waits indefinitely.
	WaitBudget time.Duration
	// Inventory optionally seeds the controller with the static site
	// features of a `hopevet -inventory` JSON document (see
	// SeedInventoryJSON).
	Inventory []byte
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Crossover == 0 {
		c.Crossover = 0.75
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 0.05
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 8
	}
	if c.WaitBudget == 0 {
		c.WaitBudget = 2 * time.Millisecond
	}
	return c
}

// mode is the controller's overall policy.
type mode int

const (
	modeAdaptive mode = iota
	modeOff
)

// siteState is one site's estimator and admission state.
type siteState struct {
	// w and a are the decayed total and affirmed weights:
	// w ← γw + 1, a ← γa + [affirmed], γ = 1 - 1/Window.
	w, a  float64
	state State
	// tick counts admission decisions at the site, driving the
	// deterministic 1-of-2 (throttled) and 1-of-N (off) admission
	// cadence.
	tick uint64
	// pinned sites are always admitted: the inventory shows the guessing
	// function resolves the AID itself, so a pessimistic wait could
	// never be released by another process.
	pinned bool
}

// Controller decides, per Guess site, whether to admit speculation.
// A nil *Controller is the always-on policy: the engine consults it
// only when non-nil, preserving the exact pre-policy hot path.
type Controller struct {
	mode mode
	cfg  Config

	mu    sync.Mutex
	sites map[uint64]*siteState
	// guessed maps an in-flight assumption to the sites whose guesses
	// opened intervals on it, so terminal verdicts credit the right
	// estimators (an AID may be guessed at several sites).
	guessed map[ids.AID][]uint64

	seeded  int
	seedErr error
}

// NewAdaptive builds an adaptive controller. A non-nil cfg.Inventory is
// applied as with SeedInventoryJSON; a malformed document disables
// seeding but not the controller (see InventoryStatus).
func NewAdaptive(cfg Config) *Controller {
	c := &Controller{
		mode:    modeAdaptive,
		cfg:     cfg.withDefaults(),
		sites:   make(map[uint64]*siteState),
		guessed: make(map[ids.AID][]uint64),
	}
	if cfg.Inventory != nil {
		c.seeded, c.seedErr = c.SeedInventoryJSON(cfg.Inventory)
	}
	return c
}

// AlwaysOff builds the static pessimistic policy: every admission is
// denied, so each guess first waits (up to WaitBudget) for its real
// verdict. The estimator still learns — the accuracy each admission
// reports (and hopetop's per-site rows show) stays live — but never
// changes admissions.
func AlwaysOff(cfg Config) *Controller {
	c := NewAdaptive(cfg)
	c.mode = modeOff
	return c
}

// WaitBudget reports the configured pessimistic-wait bound.
func (c *Controller) WaitBudget() time.Duration { return c.cfg.WaitBudget }

// Verdict is one admission decision.
type Verdict struct {
	// Admit reports whether the guess may speculate.
	Admit bool
	// Probe marks an admission granted only to keep the estimator
	// learning at a throttled/off site.
	Probe bool
	// State is the site's admission state after the decision.
	State State
	// Estimate is the site's decayed accuracy estimate (1 when the
	// estimator has no evidence).
	Estimate float64
}

// Admit decides whether the guess at site h may speculate. Live
// executions only: replayed guesses read their logged verdict and never
// arrive here.
func (c *Controller) Admit(h uint64) Verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.site(h)
	s.tick++
	est := 1.0
	if s.w > 0 {
		est = s.a / s.w
	}
	v := Verdict{Admit: true, State: s.state, Estimate: est}
	switch {
	case s.pinned:
		v.State = StateOn
	case c.mode == modeOff:
		s.state = StateOff
		v.State = StateOff
		v.Admit = false
	default:
		s.state = c.nextState(s.state, est, s.w)
		v.State = s.state
		switch s.state {
		case StateThrottled:
			v.Admit = s.tick%2 == 0
		case StateOff:
			v.Admit = s.tick%uint64(c.cfg.ProbeEvery) == 0
			v.Probe = v.Admit
		}
	}
	return v
}

// nextState advances the admission state machine. The thresholds:
// On→Throttled below Crossover-Hysteresis, Throttled→On at
// Crossover+Hysteresis, Throttled→Off below Crossover/2, Off→Throttled
// at Crossover/2+Hysteresis. Sites with fewer than MinSamples of
// decayed evidence stay On — admitting is how evidence is gathered.
func (c *Controller) nextState(st State, est, weight float64) State {
	if weight < float64(c.cfg.MinSamples) {
		return StateOn
	}
	offBelow := c.cfg.Crossover / 2
	switch st {
	case StateOn:
		if est < c.cfg.Crossover-c.cfg.Hysteresis {
			st = StateThrottled
		}
	case StateThrottled:
		switch {
		case est >= c.cfg.Crossover+c.cfg.Hysteresis:
			st = StateOn
		case est < offBelow:
			st = StateOff
		}
	case StateOff:
		if est >= offBelow+c.cfg.Hysteresis {
			st = StateThrottled
		}
	}
	return st
}

// site returns (creating if needed) the state for h. Caller holds c.mu.
func (c *Controller) site(h uint64) *siteState {
	s := c.sites[h]
	if s == nil {
		s = &siteState{state: StateOn}
		c.sites[h] = s
	}
	return s
}

// NoteGuess registers that an admitted guess at site h opened an
// interval on x: when x terminally resolves, the verdict credits h's
// estimator (see Observe).
func (c *Controller) NoteGuess(h uint64, x ids.AID) {
	c.mu.Lock()
	c.guessed[x] = append(c.guessed[x], h)
	c.mu.Unlock()
}

// TakeGuessed removes and returns the sites registered for x. The
// engine's verdict fanout calls this once per terminal resolution.
func (c *Controller) TakeGuessed(x ids.AID) []uint64 {
	c.mu.Lock()
	hs := c.guessed[x]
	if hs != nil {
		delete(c.guessed, x)
	}
	c.mu.Unlock()
	return hs
}

// Observe feeds one verdict into site h's estimator. The engine calls it
// for every verdict a guess at h earns, whether the guess speculated
// (interval verdict), short-circuited (already-resolved AID), or waited
// pessimistically.
func (c *Controller) Observe(h uint64, affirmed bool) {
	gamma := 1 - 1/float64(c.cfg.Window)
	c.mu.Lock()
	s := c.site(h)
	s.w = s.w*gamma + 1
	if affirmed {
		s.a = s.a*gamma + 1
	} else {
		s.a = s.a * gamma
	}
	c.mu.Unlock()
}

// inventoryDoc mirrors the fields of vet's hope.siteinventory/v1 JSON
// that seeding reads. Decoded structurally rather than importing
// internal/vet, so the runtime never links the static analyzer.
type inventoryDoc struct {
	Schema string `json:"schema"`
	Sites  []struct {
		SiteKey               string `json:"site"`
		SiteHash              uint64 `json:"site_hash"`
		AIDLocal              bool   `json:"aid_local"`
		Escapes               bool   `json:"escapes"`
		ResolveDistanceBlocks int    `json:"resolve_distance_blocks"`
	} `json:"sites"`
}

// inventorySchema is the accepted schema identifier (vet.InventorySchema).
const inventorySchema = "hope.siteinventory/v1"

// SeedInventoryJSON joins the static site features of a `hopevet
// -inventory` document into the controller, before any runtime evidence
// exists. One feature is load-bearing for liveness rather than
// performance: a site whose AID is minted locally, never escapes the
// function, and is resolved locally can only ever be resolved by the
// guessing process itself — a pessimistic wait there would be released
// only by its WaitBudget — so such sites are pinned always-on. It
// returns the number of sites seeded.
func (c *Controller) SeedInventoryJSON(data []byte) (int, error) {
	var doc inventoryDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("policy: inventory: %w", err)
	}
	if doc.Schema != inventorySchema {
		return 0, fmt.Errorf("policy: inventory schema %q, want %q", doc.Schema, inventorySchema)
	}
	n := 0
	c.mu.Lock()
	for _, site := range doc.Sites {
		if site.SiteHash == 0 {
			continue
		}
		s := c.site(site.SiteHash)
		if site.AIDLocal && !site.Escapes && site.ResolveDistanceBlocks >= 0 {
			s.pinned = true
		}
		n++
	}
	c.mu.Unlock()
	return n, nil
}

// InventoryStatus reports how seeding went: the number of sites joined
// and the parse error, if any (a bad document never disables the
// controller — it just starts unseeded).
func (c *Controller) InventoryStatus() (int, error) { return c.seeded, c.seedErr }

package policy

import (
	"strings"
	"testing"
	"time"

	"hope/internal/ids"
)

// estimate reads site h's decayed accuracy (1 with no evidence), the
// value Admit reports in Verdict.Estimate, without making a decision.
func estimate(c *Controller, h uint64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.site(h)
	if s.w == 0 {
		return 1
	}
	return s.a / s.w
}

// feed pushes n verdicts with the given accuracy pattern (cyclic) into
// site h.
func feed(c *Controller, h uint64, pattern []bool, n int) {
	for i := 0; i < n; i++ {
		c.Observe(h, pattern[i%len(pattern)])
	}
}

func TestEstimatorDecay(t *testing.T) {
	c := NewAdaptive(Config{Window: 8})
	const h = 42
	feed(c, h, []bool{true}, 50)
	if e := estimate(c, h); e < 0.999 {
		t.Fatalf("all-affirm estimate = %v, want ~1", e)
	}
	// A run of denies must drag the estimate down within ~Window
	// observations, not linger on ancient affirms.
	feed(c, h, []bool{false}, 16)
	if e := estimate(c, h); e > 0.2 {
		t.Fatalf("estimate %v after 2 windows of denies, want < 0.2", e)
	}
}

func TestStateTransitions(t *testing.T) {
	c := NewAdaptive(Config{Window: 16, MinSamples: 4})
	const h = 7

	// Fresh site: no evidence, admit everything.
	if v := c.Admit(h); !v.Admit || v.State != StateOn {
		t.Fatalf("fresh site verdict = %+v, want admitted On", v)
	}

	// Drive accuracy to ~0.5: below crossover-hysteresis (0.70), above
	// off threshold (0.375) → Throttled, admitting every other guess.
	feed(c, h, []bool{true, false}, 64)
	admits := 0
	for i := 0; i < 10; i++ {
		v := c.Admit(h)
		if v.State != StateThrottled {
			t.Fatalf("state after 50%% accuracy = %v, want throttled", v.State)
		}
		if v.Admit {
			admits++
		}
	}
	if admits != 5 {
		t.Fatalf("throttled site admitted %d/10, want 5", admits)
	}

	// Collapse accuracy to ~0 → Off, admitting one in ProbeEvery.
	feed(c, h, []bool{false}, 64)
	admits = 0
	probes := 0
	for i := 0; i < 16; i++ {
		v := c.Admit(h)
		if v.State != StateOff {
			t.Fatalf("state after 0%% accuracy = %v, want off", v.State)
		}
		if v.Admit {
			admits++
			if !v.Probe {
				t.Fatal("off-state admission not marked as probe")
			}
		}
	}
	_ = probes
	if admits != 2 { // ProbeEvery defaults to 8
		t.Fatalf("off site admitted %d/16, want 2 probes", admits)
	}

	// Recovery: sustained affirms walk Off → Throttled → On.
	feed(c, h, []bool{true}, 64)
	v := c.Admit(h)
	if v.State == StateOff {
		t.Fatalf("state after recovery = %v, want throttled or on", v.State)
	}
	feed(c, h, []bool{true}, 64)
	if v := c.Admit(h); v.State != StateOn || !v.Admit {
		t.Fatalf("state after full recovery = %+v, want admitted On", v)
	}
}

func TestHysteresisPreventsFlapping(t *testing.T) {
	c := NewAdaptive(Config{Window: 32, MinSamples: 4, Crossover: 0.75, Hysteresis: 0.05})
	const h = 9
	// Hold accuracy just inside the dead band (~0.72): an On site must
	// not throttle until it crosses 0.70.
	feed(c, h, []bool{true, true, true, false}, 256) // 0.75
	if v := c.Admit(h); v.State != StateOn {
		t.Fatalf("state at crossover = %v, want on (dead band)", v.State)
	}
}

func TestAlwaysOffDeniesAll(t *testing.T) {
	c := AlwaysOff(Config{})
	const h = 3
	for i := 0; i < 20; i++ {
		if v := c.Admit(h); v.Admit || v.State != StateOff {
			t.Fatalf("always-off verdict = %+v, want denied Off", v)
		}
	}
	// Verdicts still feed the estimator (hopetop shows live accuracy).
	feed(c, h, []bool{true}, 10)
	if e := estimate(c, h); e < 0.999 {
		t.Fatalf("always-off estimator dead: estimate %v", e)
	}
}

func TestGuessAttribution(t *testing.T) {
	c := NewAdaptive(Config{})
	x, y := ids.AID(1), ids.AID(2)
	c.NoteGuess(100, x)
	c.NoteGuess(200, x)
	c.NoteGuess(100, y)
	if hs := c.TakeGuessed(x); len(hs) != 2 {
		t.Fatalf("TakeGuessed(x) = %v, want two sites", hs)
	}
	if hs := c.TakeGuessed(x); hs != nil {
		t.Fatalf("second TakeGuessed(x) = %v, want nil", hs)
	}
	if hs := c.TakeGuessed(y); len(hs) != 1 || hs[0] != 100 {
		t.Fatalf("TakeGuessed(y) = %v, want [100]", hs)
	}
}

func TestSeedInventory(t *testing.T) {
	inv := `{
	  "schema": "hope.siteinventory/v1",
	  "module": "hope",
	  "sites": [
	    {"site": "a/x.go:10", "site_hash": 11, "aid_local": true, "escapes": false, "resolve_distance_blocks": 2},
	    {"site": "b/y.go:20", "site_hash": 22, "aid_local": true, "escapes": true, "resolve_distance_blocks": -1}
	  ]
	}`
	c := NewAdaptive(Config{Inventory: []byte(inv)})
	if n, err := c.InventoryStatus(); n != 2 || err != nil {
		t.Fatalf("seeded %d sites, err %v; want 2, nil", n, err)
	}
	// Site 11 self-resolves: pinned On even under collapsing accuracy.
	feed(c, 11, []bool{false}, 128)
	if v := c.Admit(11); !v.Admit || v.State != StateOn {
		t.Fatalf("pinned site verdict = %+v, want admitted On", v)
	}
	// Site 22 escapes: ordinary adaptive handling applies (the state
	// machine descends one level per decision: On→Throttled→Off).
	feed(c, 22, []bool{false}, 128)
	c.Admit(22)
	if v := c.Admit(22); v.State != StateOff {
		t.Fatalf("escaping site state = %v, want off after denies", v.State)
	}

	if _, err := NewAdaptive(Config{Inventory: []byte("{")}).InventoryStatus(); err == nil {
		t.Fatal("malformed inventory reported no error")
	}
	if _, err := NewAdaptive(Config{Inventory: []byte(`{"schema":"other/v9"}`)}).InventoryStatus(); err == nil ||
		!strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong-schema inventory error = %v, want schema complaint", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := NewAdaptive(Config{})
	if c.WaitBudget() != 2*time.Millisecond {
		t.Fatalf("default WaitBudget = %v, want 2ms", c.WaitBudget())
	}
	if got := (Config{}).withDefaults(); got.Crossover != 0.75 || got.Window != 64 ||
		got.MinSamples != 8 || got.ProbeEvery != 8 || got.Hysteresis != 0.05 {
		t.Fatalf("defaults = %+v", got)
	}
	// Negative budget = wait indefinitely, preserved as-is.
	if got := (Config{WaitBudget: -1}).withDefaults(); got.WaitBudget != -1 {
		t.Fatalf("negative WaitBudget rewritten to %v", got.WaitBudget)
	}
}

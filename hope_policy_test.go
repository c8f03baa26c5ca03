package hope_test

import (
	"fmt"
	"testing"
	"time"

	"hope"
	"hope/internal/testutil"
)

// guessChain is a two-process workload whose committed output must be
// identical under every speculation policy: the worker guesses n
// assumptions, the judge affirms the even ones and denies the odd ones.
func guessChain(t *testing.T, pol hope.SpeculationPolicy, n int) string {
	t.Helper()
	buf := &testutil.SyncBuffer{}
	rt := hope.New(hope.WithPolicy(hope.Policy{Output: buf, Speculation: pol}))
	defer rt.Shutdown()
	// The worker first: its sends wait for the judge's Spawn.
	if err := rt.Spawn("worker", func(p *hope.Proc) error {
		for i := 0; i < n; i++ {
			x := p.NewAID()
			if err := p.Send("judge", x); err != nil {
				return err
			}
			if p.Guess(x) {
				p.Printf("fast %d\n", i)
			} else {
				p.Printf("slow %d\n", i)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Spawn("judge", func(p *hope.Proc) error {
		for i := 0; i < n; i++ {
			m, err := p.Recv()
			if err != nil {
				return err
			}
			x := m.Payload.(hope.AID)
			if i%2 == 0 {
				err = p.Affirm(x)
			} else {
				err = p.Deny(x)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, err := range rt.Wait() {
		t.Fatalf("process error under %+v: %v", pol, err)
	}
	return buf.String()
}

// TestSpeculationPoliciesAgreeOnCommittedOutput is the façade-level
// differential: whatever the policy decides — speculate, wait, probe —
// the committed output is byte-identical, because non-speculative
// verdicts take exactly the branch a denial's rollback replays.
func TestSpeculationPoliciesAgreeOnCommittedOutput(t *testing.T) {
	const n = 12
	var want string
	for i := 0; i < n; i++ {
		verdict := map[bool]string{true: "fast", false: "slow"}[i%2 == 0]
		want += fmt.Sprintf("%s %d\n", verdict, i)
	}
	policies := map[string]hope.SpeculationPolicy{
		"always-on":  hope.AlwaysOn(),
		"always-off": hope.AlwaysOff(),
		"adaptive":   hope.Adaptive(hope.AdaptiveConfig{Window: 8, MinSamples: 2, WaitBudget: time.Second}),
		"adaptive-impatient": hope.Adaptive(hope.AdaptiveConfig{
			Crossover: 0.99, Hysteresis: 0.0001, MinSamples: 1, WaitBudget: time.Millisecond,
		}),
	}
	for name, pol := range policies {
		t.Run(name, func(t *testing.T) {
			if got := guessChain(t, pol, n); got != want {
				t.Fatalf("committed output diverged:\n got: %q\nwant: %q", got, want)
			}
		})
	}
}

// TestWithPolicyComposes checks the layering contract: zero fields keep
// defaults and later policies override only what they set — a nil
// Observer in particular leaves the attached sink alone.
func TestWithPolicyComposes(t *testing.T) {
	o := hope.NewObserver()
	base := hope.Policy{Shards: 1, Speculation: hope.AlwaysOff(), Observer: o}
	buf := &testutil.SyncBuffer{}
	// Output comes from the second policy, the rest from the base.
	rt := hope.New(hope.WithPolicy(base), hope.WithPolicy(hope.Policy{Output: buf, Observer: nil}))
	defer rt.Shutdown()
	if got := rt.Shards(); got != 1 {
		t.Fatalf("Shards() = %d, want 1 from base policy", got)
	}
	if rt.Observer() != o {
		t.Fatal("a nil Policy.Observer replaced the base policy's observer; nil must be a no-op")
	}
	if err := rt.Spawn("w", func(p *hope.Proc) error {
		x := p.NewAID()
		if err := p.Affirm(x); err != nil {
			return err
		}
		if p.Guess(x) { // resolved: pessimistic verdict, no wait
			p.Printf("ok\n")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, err := range rt.Wait() {
		t.Fatal(err)
	}
	if buf.String() != "ok\n" {
		t.Fatalf("output = %q, want %q (second policy's output writer ignored?)", buf.String(), "ok\n")
	}
	// The AlwaysOff policy from base stayed in effect: the guess was
	// admission-checked, so the observer has a site row.
	if stats := rt.Observer().SiteStats(); len(stats) != 1 || stats[0].Denied == 0 {
		t.Fatalf("site stats = %+v, want one denied site", stats)
	}
}

// TestAdaptiveInventorySeeding checks the static-feature path through
// the façade: a malformed inventory never disables the runtime.
func TestAdaptiveInventorySeeding(t *testing.T) {
	pol := hope.Adaptive(hope.AdaptiveConfig{Inventory: []byte("not json")})
	if got := guessChain(t, pol, 4); got == "" {
		t.Fatal("no committed output with malformed inventory")
	}
}

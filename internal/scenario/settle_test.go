package scenario

import (
	"strings"
	"testing"
	"time"

	"hope/internal/engine"
)

// TestSettleRejectsHeldSpeculation: a body that guesses an AID nobody
// resolves parks speculative, and the runtime quiesces holding its
// record and interval. Settle fails the run and shows both.
func TestSettleRejectsHeldSpeculation(t *testing.T) {
	rt := engine.New()
	if err := rt.Spawn("optimist", func(p *engine.Proc) error {
		p.Guess(p.NewAID())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	_, err := Settle(rt, time.Now())
	if err == nil {
		t.Fatal("Settle accepted a runtime holding an unresolved assumption")
	}
	for _, want := range []string{"unresolved", "live:", "optimist"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Settle's report lacks %q:\n%v", want, err)
		}
	}
}

package testmode

import (
	"testing"
	"time"

	"hope/internal/engine"
)

func TestBody(t *testing.T) {
	rt := engine.New()
	defer rt.Shutdown()
	if err := rt.Spawn("p", func(p *engine.Proc) error {
		_ = time.Now() // want `call to time.Now`
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestManifest checks that the workloads and metrics this program emits
// are exactly the ones BENCHMARK.json declares, units and bounds too.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	wls := workloads(1)
	if len(mf.Workloads) != len(wls) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(mf.Workloads), len(wls))
	}
	for i, wl := range wls {
		if mf.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, mf.Workloads[i].Name, wl.name)
		}
	}
	if len(mf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program emits %d", len(mf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := mf.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the program %+v", i, got, m)
		}
	}
	if len(mf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program emits %d", len(mf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := mf.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the program %+v", i, got, m)
		}
	}
}

// TestTinyEpisodes runs every workload for one tiny fault-free episode,
// untraced and traced, checks the oracle, and checks that the samples
// the run collects are exactly the declared metrics: none undeclared,
// none missing.
func TestTinyEpisodes(t *testing.T) {
	seen := map[string]bool{}
	for _, wl := range workloads(25) {
		for _, traced := range []bool{false, true} {
			r := newRun(wl, 7, traced)
			r.episode(1, 10*time.Second)
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%s traced=%v: %d of %d ops failed the oracle", wl.name, traced, r.failed, r.attempted)
			}
			rep, err := r.report(1, 2)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			for name := range r.s {
				if _, ok := rep.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: sample %q is not a declared metric", wl.name, traced, name)
				}
				seen[name] = true
			}
			if traced && rep.layers.makespan != sum(rep.layers.share[:])+rep.layers.uncovered {
				t.Errorf("%s: span shares and residual do not add up to the op makespan", wl.name)
			}
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !seen[m.name] {
			t.Errorf("declared metric %q was never measured", m.name)
		}
	}
}

// TestWatchdog checks that an episode which never completes is
// abandoned at its deadline with every op counted failed.
func TestWatchdog(t *testing.T) {
	wedged := &workload{name: "wedged", ops: 3}
	wedged.prepare = func(*episode) func() (*instance, error) {
		return func() (*instance, error) {
			in, err := newCluster(1, nil, nil)
			in.start = func() error { return nil }
			in.wait = func(stop <-chan struct{}) error {
				<-stop
				return errors.New("stopped")
			}
			return in, err
		}
	}
	_, res := runEpisode(wedged, 1, false, 20*time.Millisecond)
	if res.err == nil || res.attempted != 3 || res.failed != 3 {
		t.Fatalf("wedged episode: err=%v attempted=%d failed=%d, want an error and 3 of 3 failed", res.err, res.attempted, res.failed)
	}
}

func sum(xs []int64) (n int64) {
	for _, x := range xs {
		n += x
	}
	return n
}

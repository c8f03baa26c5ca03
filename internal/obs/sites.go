package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Per-site speculation metrics: one row per Guess call site, keyed by
// the shared internal/site hash. The engine's admission layer reports
// every live guess (admitted or not) and every per-site verdict here,
// for the sites section of Dump. Like every other counter, the table is
// written by the runtime and read only by whoever attached the
// observer: the admission controller learns from the engine directly
// (see internal/policy), never from here.

// SiteStat is one Guess site's accumulated registry row.
type SiteStat struct {
	// Key is the canonical site identity ("pkg/file.go:line",
	// internal/site.Key); Hash its shared fold.
	Key  string `json:"site"`
	Hash uint64 `json:"site_hash"`
	// Guesses counts live guesses at the site; Admitted/Denied split
	// them by the admission verdict (always-on runtimes admit all).
	Guesses  int64 `json:"guesses"`
	Admitted int64 `json:"admitted"`
	Denied   int64 `json:"denied"`
	// Affirms/Refutes count per-site terminal verdicts — the same
	// verdicts the admission controller's estimator decays.
	Affirms int64 `json:"affirms"`
	Refutes int64 `json:"refutes"`
	// WaitTimeouts counts pessimistic waits that hit their budget and
	// fell back to speculating.
	WaitTimeouts int64 `json:"wait_timeouts,omitempty"`
	// State and Estimate are the admission controller's last reported
	// state and decayed accuracy for the site (state "" when no
	// controller is attached).
	State    string  `json:"state,omitempty"`
	Estimate float64 `json:"estimate"`
}

// siteTable is the per-site registry: a plain map under a mutex —
// touched once per live guess and once per verdict, far off the
// per-message hot paths the atomic registry serves.
type siteTable struct {
	mu  sync.Mutex
	tab map[uint64]*SiteStat
}

// site returns the row for h, creating it. Caller holds t.mu.
func (t *siteTable) site(h uint64, key string) *SiteStat {
	if t.tab == nil {
		t.tab = make(map[uint64]*SiteStat)
	}
	s := t.tab[h]
	if s == nil {
		s = &SiteStat{Hash: h, Estimate: 1}
		t.tab[h] = s
	}
	if s.Key == "" && key != "" {
		s.Key = key
	}
	return s
}

// SiteGuess records one live guess at site h: its admission verdict and
// the controller's state and accuracy estimate at decision time (state
// "" and estimate 1 when no controller is attached).
func (o *Observer) SiteGuess(h uint64, key string, admitted bool, state string, estimate float64) {
	if o == nil {
		return
	}
	t := &o.sites
	t.mu.Lock()
	s := t.site(h, key)
	s.Guesses++
	if admitted {
		s.Admitted++
	} else {
		s.Denied++
	}
	s.State = state
	s.Estimate = estimate
	t.mu.Unlock()
}

// SiteVerdict records one terminal verdict attributed to site h —
// interval resolutions, short-circuited guesses, and pessimistic-wait
// results alike.
func (o *Observer) SiteVerdict(h uint64, affirmed bool) {
	if o == nil {
		return
	}
	t := &o.sites
	t.mu.Lock()
	s := t.site(h, "")
	if affirmed {
		s.Affirms++
	} else {
		s.Refutes++
	}
	t.mu.Unlock()
}

// SiteWaitTimeout records a pessimistic wait at h that exhausted its
// budget and fell back to speculating.
func (o *Observer) SiteWaitTimeout(h uint64) {
	if o == nil {
		return
	}
	t := &o.sites
	t.mu.Lock()
	t.site(h, "").WaitTimeouts++
	t.mu.Unlock()
}

// SiteStats snapshots the per-site registry, ordered by site key (rows
// with no resolved key yet sort by hash, after the named ones).
func (o *Observer) SiteStats() []SiteStat {
	if o == nil {
		return nil
	}
	t := &o.sites
	t.mu.Lock()
	out := make([]SiteStat, 0, len(t.tab))
	for _, s := range t.tab {
		out = append(out, *s)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if (a.Key == "") != (b.Key == "") {
			return b.Key == ""
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Hash < b.Hash
	})
	return out
}

// dumpSites renders the per-site table section of Dump (empty string
// when no sites were recorded).
func (o *Observer) dumpSites() string {
	stats := o.SiteStats()
	if len(stats) == 0 {
		return ""
	}
	var b []byte
	for _, s := range stats {
		key := s.Key
		if key == "" {
			key = fmt.Sprintf("site#%x", s.Hash)
		}
		state := s.State
		if state == "" {
			state = "-"
		}
		b = fmt.Appendf(b, "    %-32s %-9s acc=%.2f guesses=%d admit=%d deny=%d affirm=%d refute=%d timeouts=%d\n",
			key, state, s.Estimate, s.Guesses, s.Admitted, s.Denied, s.Affirms, s.Refutes, s.WaitTimeouts)
	}
	return "  sites:\n" + string(b)
}

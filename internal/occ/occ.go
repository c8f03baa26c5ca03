// Package occ implements optimistic concurrency control over replicated
// data on the HOPE runtime — the application the paper names as its
// primary future-work target (§7, [6]): "a local cached replica of a
// piece of data can greatly reduce the latency of access to that data,
// and optimistically assuming consistency can reduce the latency of
// updating replicated data."
//
// A Session holds a client-local cache of a primary store. Reads hit the
// cache. An optimistic write applies locally at zero latency under the
// assumption that the cached version is still current, and ships a
// compare-and-swap to the primary for validation in parallel; the primary
// affirms the assumption on success and denies it on conflict, rolling
// the client (and everything downstream of its speculative write) back to
// the write, whose pessimistic path reconciles synchronously. The
// pessimistic baseline (WriteSync) pays a round trip on every write.
//
// Unlike the rpc package's optimistic server, the primary needs no
// ordered variant: it resolves each write's assumption at the moment it
// consumes the request, so resolution follows the primary's single
// consumption order — well-founded by construction, immune to the
// speculative-resolution cycles of DESIGN.md finding 4 (which require
// resolution in processes whose ordering is not aligned with the shared
// server's consumption order).
package occ

import (
	"errors"
	"fmt"
	"sort"

	"hope/internal/engine"
)

// Versioned is a value with its primary version number.
type Versioned struct {
	Val any
	Ver int
}

// getReq asks the primary for a key's current value.
type getReq struct {
	ID      int
	Key     string
	ReplyTo string
}

// getResp answers a getReq.
type getResp struct {
	ID int
	Versioned
}

// casReq is a conditional write: apply Val if the key's version is still
// Base. Assumption, when valid, is the optimistic-write assumption the
// primary resolves.
type casReq struct {
	ID         int
	Key        string
	Val        any
	Base       int
	ReplyTo    string
	Assumption engine.AID
	Sync       bool // synchronous CAS: always answer, never touch the AID
}

// casResp answers a casReq: OK with the new version, or the conflicting
// current state.
type casResp struct {
	ID  int
	OK  bool
	Cur Versioned
}

// ServePrimary spawns the authoritative store process. Initial state is
// copied; versions start at 1.
func ServePrimary(rt *engine.Runtime, name string, initial map[string]any) error {
	init := make(map[string]any, len(initial))
	for k, v := range initial {
		init[k] = v
	}
	return rt.Spawn(name, func(p *engine.Proc) error {
		// State is rebuilt on every body attempt so replay re-derives it
		// from the surviving request prefix.
		data := make(map[string]Versioned, len(init))
		for _, k := range sortedKeys(init) {
			data[k] = Versioned{Val: init[k], Ver: 1}
		}
		for {
			m, err := p.Recv()
			if err != nil {
				if errors.Is(err, engine.ErrShutdown) {
					return nil
				}
				return err
			}
			switch req := m.Payload.(type) {
			case getReq:
				if err := p.Send(req.ReplyTo, getResp{ID: req.ID, Versioned: data[req.Key]}); err != nil {
					return err
				}
			case casReq:
				cur := data[req.Key]
				if cur.Ver == req.Base {
					data[req.Key] = Versioned{Val: req.Val, Ver: cur.Ver + 1}
					if req.Sync {
						if err := p.Send(req.ReplyTo, casResp{ID: req.ID, OK: true, Cur: data[req.Key]}); err != nil {
							return err
						}
						continue
					}
					push := false
					switch err := p.Affirm(req.Assumption); {
					case errors.Is(err, engine.ErrConflict):
						push = true
					case err != nil:
						return fmt.Errorf("affirm %v: %w", req.Assumption, err)
					}
					if resolved, affirmed := p.Outcome(req.Assumption); resolved && !affirmed {
						// §5.6 stale affirm: the client is on its
						// pessimistic path and needs the current state.
						push = true
					}
					if push {
						if err := p.Send(req.ReplyTo, casResp{ID: req.ID, OK: true, Cur: data[req.Key]}); err != nil {
							return err
						}
					}
					continue
				}
				// Conflict.
				if req.Sync {
					if err := p.Send(req.ReplyTo, casResp{ID: req.ID, OK: false, Cur: cur}); err != nil {
						return err
					}
					continue
				}
				if err := p.Deny(req.Assumption); err != nil && !errors.Is(err, engine.ErrConflict) {
					return fmt.Errorf("deny %v: %w", req.Assumption, err)
				}
				if err := p.Send(req.ReplyTo, casResp{ID: req.ID, OK: false, Cur: cur}); err != nil {
					return err
				}
			default:
				return fmt.Errorf("occ primary %q: unexpected message %T", name, m.Payload)
			}
		}
	})
}

// Session is a client-local replica bound to one body invocation of the
// owning process. Its cache and counters are locals, so rollback replay
// rebuilds them deterministically.
type Session struct {
	p       *engine.Proc
	primary string
	cache   map[string]Versioned
	next    int

	// Stats for experiments; speculative increments are rolled back with
	// the body state because the session is rebuilt on replay.
	OptimisticCommits int
	Conflicts         int
	SyncWrites        int
}

// NewSession opens a session against the named primary. Call it at the
// top of the process body.
func NewSession(p *engine.Proc, primary string) *Session {
	return &Session{p: p, primary: primary, cache: make(map[string]Versioned)}
}

// Read returns the key's value, from cache when present (zero latency),
// otherwise fetching — and caching — the primary's current version.
func (s *Session) Read(key string) (any, error) {
	if v, ok := s.cache[key]; ok {
		return v.Val, nil
	}
	v, err := s.fetch(key)
	if err != nil {
		return nil, err
	}
	return v.Val, nil
}

// Refresh drops the cache entry and re-reads the primary.
func (s *Session) Refresh(key string) (any, error) {
	delete(s.cache, key)
	return s.Read(key)
}

func (s *Session) fetch(key string) (Versioned, error) {
	s.next++
	id := s.next
	if err := s.p.Send(s.primary, getReq{ID: id, Key: key, ReplyTo: s.p.Name()}); err != nil {
		return Versioned{}, err
	}
	m, err := s.p.RecvMatch(func(v any) bool {
		r, ok := v.(getResp)
		return ok && r.ID == id
	})
	if err != nil {
		return Versioned{}, err
	}
	got := m.Payload.(getResp).Versioned
	s.cache[key] = got
	return got, nil
}

// Update performs a read-modify-write: f maps the current value to the
// new one. The optimistic path applies f to the cached value at zero
// latency; on conflict the pessimistic path re-reads and re-applies f
// until the CAS lands, so no update is lost. It returns whether the
// optimistic path stood.
func (s *Session) Update(key string, f func(any) any) (bool, error) {
	base, ok := s.cache[key]
	if !ok {
		var err error
		base, err = s.fetch(key)
		if err != nil {
			return false, err
		}
	}
	val := f(base.Val)
	s.next++
	id := s.next
	x := s.p.NewAID()
	req := casReq{ID: id, Key: key, Val: val, Base: base.Ver, ReplyTo: s.p.Name(), Assumption: x}
	if err := s.p.Send(s.primary, req); err != nil {
		return false, err
	}
	if s.p.Guess(x) {
		s.cache[key] = Versioned{Val: val, Ver: base.Ver + 1}
		s.OptimisticCommits++
		return true, nil
	}
	m, err := s.p.RecvMatch(func(v any) bool {
		r, ok := v.(casResp)
		return ok && r.ID == id
	})
	if err != nil {
		return false, err
	}
	resp := m.Payload.(casResp)
	s.cache[key] = resp.Cur
	if resp.OK {
		return false, nil // stale affirm: the write landed after all
	}
	s.Conflicts++
	// Re-apply f against fresh state until the CAS lands.
	return false, s.casLoop(key, f, resp.Cur)
}

// WriteSync performs a synchronous (pessimistic) write: CAS against the
// cached or fetched version, retrying on conflict, paying a round trip
// each attempt.
func (s *Session) WriteSync(key string, val any) error {
	base, ok := s.cache[key]
	if !ok {
		var err error
		base, err = s.fetch(key)
		if err != nil {
			return err
		}
	}
	return s.casLoop(key, func(any) any { return val }, base)
}

// casLoop retries a synchronous CAS, recomputing the value from the
// freshest observed state each attempt, until it lands.
func (s *Session) casLoop(key string, compute func(cur any) any, base Versioned) error {
	for {
		val := compute(base.Val)
		s.next++
		id := s.next
		req := casReq{ID: id, Key: key, Val: val, Base: base.Ver, ReplyTo: s.p.Name(), Sync: true}
		if err := s.p.Send(s.primary, req); err != nil {
			return err
		}
		m, err := s.p.RecvMatch(func(v any) bool {
			r, ok := v.(casResp)
			return ok && r.ID == id
		})
		if err != nil {
			return err
		}
		resp := m.Payload.(casResp)
		s.cache[key] = resp.Cur
		s.SyncWrites++
		if resp.OK {
			return nil
		}
		base = resp.Cur
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	//hopevet:ignore nondeterminism -- this is the "sort the keys first" idiom itself
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

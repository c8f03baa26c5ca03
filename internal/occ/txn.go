package occ

import (
	"errors"
	"fmt"
	"sort"

	"hope/internal/engine"
)

// txnReq asks the primary to atomically validate a read set and apply a
// write set.
type txnReq struct {
	ID         int
	Reads      map[string]int // key → version the client's reads observed
	Writes     map[string]any
	ReplyTo    string
	Assumption engine.AID
	Sync       bool
}

// txnResp answers a txnReq: OK with the post-commit versions of the
// write set, or the conflicting current state of the full footprint.
type txnResp struct {
	ID  int
	OK  bool
	Cur map[string]Versioned
}

// Tx accumulates one transaction's footprint. Create via Session.Txn.
type Tx struct {
	s      *Session
	reads  map[string]int
	writes map[string]any
	// view overlays pending writes on the cache so the transaction reads
	// its own writes.
	view map[string]any
}

// Read returns key's value as of the transaction's snapshot, recording
// the dependency. Reads see the transaction's own earlier writes.
func (tx *Tx) Read(key string) (any, error) {
	if v, ok := tx.view[key]; ok {
		return v, nil
	}
	base, ok := tx.s.cache[key]
	if !ok {
		var err error
		base, err = tx.s.fetch(key)
		if err != nil {
			return nil, err
		}
	}
	tx.reads[key] = base.Ver
	tx.view[key] = base.Val
	return base.Val, nil
}

// Write stages a new value for key.
func (tx *Tx) Write(key string, val any) {
	tx.writes[key] = val
	tx.view[key] = val
}

// Txn runs f as an optimistic multi-key transaction: reads come from the
// session cache (recording versions), writes apply locally at once under
// the assumption that every read version is still current at the primary,
// which validates the footprint atomically in parallel. On conflict the
// client rolls back to the commit point and retries f synchronously
// against fresh state until it commits. Returns whether the optimistic
// path stood.
func (s *Session) Txn(f func(tx *Tx) error) (bool, error) {
	tx := &Tx{s: s, reads: make(map[string]int), writes: make(map[string]any), view: make(map[string]any)}
	if err := f(tx); err != nil {
		return false, err
	}
	if len(tx.writes) == 0 {
		// Read-only: served entirely by the cache; nothing to validate
		// beyond what the reads already assumed.
		return true, nil
	}

	s.next++
	id := s.next
	x := s.p.NewAID()
	req := txnReq{ID: id, Reads: tx.reads, Writes: tx.writes, ReplyTo: s.p.Name(), Assumption: x}
	if err := s.p.Send(s.primary, req); err != nil {
		return false, err
	}
	if s.p.Guess(x) {
		// Speculative local commit.
		for _, key := range sortedKeys(tx.writes) {
			base := s.cache[key]
			s.cache[key] = Versioned{Val: tx.writes[key], Ver: base.Ver + 1}
		}
		s.OptimisticCommits++
		return true, nil
	}

	// Pessimistic path: reconcile with the pushed state, then retry f
	// synchronously until the footprint validates.
	m, err := s.p.RecvMatch(func(v any) bool {
		r, ok := v.(txnResp)
		return ok && r.ID == id
	})
	if err != nil {
		return false, err
	}
	resp := m.Payload.(txnResp)
	for _, k := range sortedKeys(resp.Cur) {
		s.cache[k] = resp.Cur[k]
	}
	if resp.OK {
		return false, nil // stale affirm: the commit landed after all
	}
	s.Conflicts++
	return false, s.txnSyncLoop(f)
}

// txnSyncLoop retries f with synchronous validation until it commits.
func (s *Session) txnSyncLoop(f func(tx *Tx) error) error {
	for {
		tx := &Tx{s: s, reads: make(map[string]int), writes: make(map[string]any), view: make(map[string]any)}
		if err := f(tx); err != nil {
			return err
		}
		if len(tx.writes) == 0 {
			return nil
		}
		s.next++
		id := s.next
		req := txnReq{ID: id, Reads: tx.reads, Writes: tx.writes, ReplyTo: s.p.Name(), Sync: true}
		if err := s.p.Send(s.primary, req); err != nil {
			return err
		}
		m, err := s.p.RecvMatch(func(v any) bool {
			r, ok := v.(txnResp)
			return ok && r.ID == id
		})
		if err != nil {
			return err
		}
		resp := m.Payload.(txnResp)
		for _, k := range sortedKeys(resp.Cur) {
			s.cache[k] = resp.Cur[k]
		}
		s.SyncWrites++
		if resp.OK {
			return nil
		}
		// Versions moved again: loop with the refreshed cache.
	}
}

// handleTxn is the primary-side validation/apply step, shared by the
// speculative and synchronous paths. It returns the response to send and
// whether the assumption (if any) should be affirmed.
func handleTxn(data map[string]Versioned, req txnReq) (txnResp, bool) {
	ok := true
	for _, key := range sortedKeys(req.Reads) {
		if data[key].Ver != req.Reads[key] {
			ok = false
			break
		}
	}
	cur := make(map[string]Versioned, len(req.Reads)+len(req.Writes))
	if ok {
		for _, key := range sortedKeys(req.Writes) {
			prev := data[key]
			data[key] = Versioned{Val: req.Writes[key], Ver: prev.Ver + 1}
			cur[key] = data[key]
		}
	} else {
		for _, key := range sortedKeys(req.Reads) {
			cur[key] = data[key]
		}
		for _, key := range sortedKeys(req.Writes) {
			cur[key] = data[key]
		}
	}
	return txnResp{ID: req.ID, OK: ok, Cur: cur}, ok
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

// txnCase extends the primary's message loop; called from ServePrimary.
func txnCase(p *engine.Proc, data map[string]Versioned, req txnReq) error {
	resp, ok := handleTxn(data, req)
	if req.Sync {
		return p.Send(req.ReplyTo, resp)
	}
	if ok {
		push := false
		switch err := p.Affirm(req.Assumption); {
		case errors.Is(err, engine.ErrConflict):
			push = true
		case err != nil:
			return fmt.Errorf("affirm %v: %w", req.Assumption, err)
		}
		if resolved, affirmed := p.Outcome(req.Assumption); resolved && !affirmed {
			push = true
		}
		if push {
			return p.Send(req.ReplyTo, resp)
		}
		return nil
	}
	if err := p.Deny(req.Assumption); err != nil && !errors.Is(err, engine.ErrConflict) {
		return fmt.Errorf("deny %v: %w", req.Assumption, err)
	}
	return p.Send(req.ReplyTo, resp)
}

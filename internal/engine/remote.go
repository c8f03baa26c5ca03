package engine

import (
	"encoding/binary"
	"fmt"
	"time"

	"hope/internal/ids"
)

// This file is the engine's distributed surface: the hooks internal/wire
// uses to run several Runtimes — in separate OS processes — as one HOPE
// system. The engine stays transport-agnostic: it hands outbound
// messages for unknown-local destinations to a remote router, accepts
// inbound ones through InjectRemote, and exchanges terminal Affirm/Deny
// verdicts through the tracker's verdict sink and ApplyVerdict.

// WireMsg is the transport-neutral form of one tagged message: exactly
// the fields of the paper's §3 message — payload plus the sender's
// assumption set — together with the sender sequence number the
// receiver's per-link duplicate filter keys on.
type WireMsg struct {
	// From and To are process names; names are unique cluster-wide.
	From, To string
	// Seq is the sender runtime's send sequence number: monotone per
	// sending process, which with per-link FIFO transport makes it the
	// receiver's duplicate-suppression high-water mark.
	Seq uint64
	// Tags is the sender's dependency set at send time (§3).
	Tags []ids.AID
	// Payload is the sent value. The transport owns (de)serialization.
	Payload any
	// Delay is the extra latency the sender's fault plan injected (0 =
	// none): the transport holds the link that much longer before this
	// message, stretching it without reordering it.
	Delay time.Duration
}

// RemoteRouter forwards a message whose destination is not a local
// process. It must either accept the message for in-order per-link
// delivery, or return an error: ErrDelivery for transport-level loss — a
// lost peer — which surfaces from Send exactly like an injected drop so
// SendRetry degrades gracefully; any other error is treated as fatal
// misconfiguration. The runtime has already decided the message's
// faults: an injected duplicate is a second call with the same Seq.
type RemoteRouter func(WireMsg) error

// SetRemoteRouter installs the remote router consulted when a Send names
// no local process (nil detaches, restoring ErrUnknownDest for unknown
// names). Call before the runtime sees traffic; the field is read under
// the runtime lock on the send path.
func (r *Runtime) SetRemoteRouter(fn RemoteRouter) {
	r.mu.Lock()
	r.remote = fn
	r.mu.Unlock()
}

// InjectRemote delivers a message that arrived over the wire to its
// local destination process, as if a local sender had routed it: the
// receiver classifies the tag set on consumption (implicit guess,
// orphan discard) through the ordinary tracker machinery — this is how
// a guess made in one OS process taints a consumer in another. The
// per-link duplicate filter is always armed for wire messages, so a
// transport-duplicated frame is suppressed here even when the receiving
// runtime itself has no fault plan attached.
func (r *Runtime) InjectRemote(m WireMsg) error {
	r.mu.Lock()
	dst, ok := r.procs[m.To]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDest, m.To)
	}
	// Foreign tags must exist in the local tracker before the receiver
	// can classify the message: an unknown AID classifies as settled,
	// which would commit a speculative payload whose deny is still in
	// flight. Materialized records resolve when the verdict broadcast
	// arrives (tracker.Materialize).
	r.tr.Materialize(m.Tags)
	dst.enqueue(&rmsg{seq: m.Seq, from: m.From, payload: m.Payload, tags: m.Tags, wire: true})
	return nil
}

// ApplyVerdict applies a terminal Affirm/Deny decided on another node to
// the local tracker (idempotent; see tracker.ApplyVerdict). A denied
// verdict rolls back every local dependent through the ordinary rollback
// machinery. Raw ids.AID because the wire layer deals in wire-format
// identifiers (WireMsg.Tags), not façade handles.
func (r *Runtime) ApplyVerdict(x ids.AID, affirmed bool) error {
	return r.tr.ApplyVerdict(x, affirmed)
}

// SetVerdictSink installs fn to observe every terminal resolution
// committed by this runtime's tracker (nil detaches). The wire layer
// broadcasts these to peers. Call before the runtime sees traffic.
// With an admission controller attached the engine owns the tracker's
// sink (it credits per-site estimators first), so fn chains behind it.
func (r *Runtime) SetVerdictSink(fn func(x ids.AID, affirmed bool)) {
	if r.spec != nil {
		if fn == nil {
			r.userSink.Store(nil)
		} else {
			r.userSink.Store(&fn)
		}
		return
	}
	r.tr.SetVerdictSink(fn)
}

// WithAIDBase namespaces the runtime's AID allocation: every assumption
// identifier minted here has base OR'd in. Distributed runtimes give
// node i the base i<<48 so AIDs stay globally unique across OS
// processes; the low bits still drive tracker shard selection.
func WithAIDBase(base uint64) Option { return func(r *Runtime) { r.aidBase = base } }

// GobEncode lets AID handles cross the wire inside gob payloads: the
// handle's field is unexported, so without this gob would encode an
// empty struct and the assumption identity would be lost in transit.
func (a AID) GobEncode() ([]byte, error) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(a.id))
	return b[:], nil
}

// GobDecode is the inverse of GobEncode.
func (a *AID) GobDecode(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("hope: AID gob encoding has %d bytes, want 8", len(data))
	}
	a.id = ids.AID(binary.BigEndian.Uint64(data))
	return nil
}

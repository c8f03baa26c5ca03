package obs

import (
	"fmt"
	"sort"
)

// This file is the transport-side observability surface: per-peer
// counters for internal/wire. Like every other hook it is nil-safe, so
// the wire layer calls unconditionally.

// RegisterWirePeer allocates a metrics slot for one directed peer link
// (named from the local node, e.g. "node0→node1" / "node1←node0") and
// returns its index, or -1 when the observer is nil or the MaxPeers
// slots are exhausted — callers pass the slot back to the Wire* hooks,
// and every hook tolerates -1.
func (o *Observer) RegisterWirePeer(name string) int {
	if o == nil {
		return -1
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.peers) >= MaxPeers {
		return -1
	}
	o.peers = append(o.peers, name)
	return len(o.peers) - 1
}

// WireFrameIn records one frame received on the slot's link.
func (o *Observer) WireFrameIn(slot, bytes int) {
	if o == nil || slot < 0 || slot >= MaxPeers {
		return
	}
	o.m.WirePeerFramesIn[slot].Add(1)
	o.m.WirePeerBytesIn[slot].Add(int64(bytes))
}

// WireFrameOut records one frame written to the slot's link.
func (o *Observer) WireFrameOut(slot, bytes int) {
	if o == nil || slot < 0 || slot >= MaxPeers {
		return
	}
	o.m.WirePeerFramesOut[slot].Add(1)
	o.m.WirePeerBytesOut[slot].Add(int64(bytes))
}

// WireRedelivery records one duplicate wire message suppressed by the
// receiver's per-sender sequence filter on the slot's link.
func (o *Observer) WireRedelivery(slot int) {
	if o == nil || slot < 0 || slot >= MaxPeers {
		return
	}
	o.m.WirePeerRedeliveries[slot].Add(1)
}

// WireVerdictBroadcast records one locally-originated verdict fanned
// out to n peers.
func (o *Observer) WireVerdictBroadcast(n int) {
	if o == nil {
		return
	}
	o.m.WireVerdictFanout.Add(int64(n))
}

// WirePeerStat is the per-link transport summary exported in Snapshot.
type WirePeerStat struct {
	Peer         string `json:"peer"`
	FramesIn     int64  `json:"frames_in"`
	FramesOut    int64  `json:"frames_out"`
	BytesIn      int64  `json:"bytes_in"`
	BytesOut     int64  `json:"bytes_out"`
	Redeliveries int64  `json:"redeliveries,omitempty"`
}

// WirePeers returns the per-link transport counters for every
// registered peer slot, in registration order.
func (o *Observer) WirePeers() []WirePeerStat {
	if o == nil {
		return nil
	}
	o.mu.RLock()
	names := append([]string(nil), o.peers...)
	o.mu.RUnlock()
	out := make([]WirePeerStat, len(names))
	for i, name := range names {
		out[i] = WirePeerStat{
			Peer:         name,
			FramesIn:     o.m.WirePeerFramesIn[i].Load(),
			FramesOut:    o.m.WirePeerFramesOut[i].Load(),
			BytesIn:      o.m.WirePeerBytesIn[i].Load(),
			BytesOut:     o.m.WirePeerBytesOut[i].Load(),
			Redeliveries: o.m.WirePeerRedeliveries[i].Load(),
		}
	}
	return out
}

// dumpWire renders Dump's wire section: the totals, then one row per
// link in name order (empty without peers).
func (o *Observer) dumpWire() string {
	peers := o.WirePeers()
	if len(peers) == 0 {
		return ""
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].Peer < peers[j].Peer })
	var in, out, bin, bout, redel int64
	var rows []byte
	for _, p := range peers {
		in += p.FramesIn
		out += p.FramesOut
		bin += p.BytesIn
		bout += p.BytesOut
		redel += p.Redeliveries
		rows = fmt.Appendf(rows, "    %-16s frames=%d/%d bytes=%d/%d redeliveries=%d\n",
			p.Peer, p.FramesOut, p.FramesIn, p.BytesOut, p.BytesIn, p.Redeliveries)
	}
	return fmt.Sprintf("  wire:        peers=%d frames=%d/%d bytes=%d/%d (out/in) redeliveries=%d verdict-fanout=%d\n",
		len(peers), out, in, bout, bin, redel, o.m.WireVerdictFanout.Load()) + string(rows)
}

// Package wire is the cross-process transport: a length-prefixed binary
// codec for HOPE's tagged messages and distributed-resolution control
// frames, plus a TCP peer layer (node.go) that runs several
// engine.Runtimes — in separate OS processes — as one speculative
// system. The paper's prototype ran on PVM across a workstation network
// (§7); this is that substrate made real: a guess in process A taints a
// message consumed in process B, and a Deny in A rolls B back through
// the ordinary tracker/engine machinery.
//
// # Frame format
//
// Every frame is an 8-byte header followed by a body:
//
//	offset  size  field
//	0       2     magic "HW"
//	2       1     protocol version (1)
//	3       1     frame type (Hello/Msg/Verdict/Done)
//	4       4     body length, big-endian (max MaxBody)
//
// Body fields are big-endian; strings are a u16 length prefix plus
// bytes; AID sets and vector clocks are a u32 count prefix plus fixed
// -width entries. Decoding is strict: truncated, oversized, or
// trailing-garbage bodies are rejected with an error, never a panic —
// the fuzz harness pins this.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"hope/internal/ids"
)

// FrameType discriminates the frame kinds.
type FrameType byte

const (
	// FrameHello opens a connection: it names the dialing node.
	FrameHello FrameType = 1 + iota
	// FrameMsg carries one tagged application message.
	FrameMsg
	// FrameVerdict broadcasts one terminal Affirm/Deny resolution.
	FrameVerdict
	// FrameDone announces that a node's local processes all finished —
	// the cluster termination barrier.
	FrameDone
)

// String names the frame type.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameMsg:
		return "msg"
	case FrameVerdict:
		return "verdict"
	case FrameDone:
		return "done"
	default:
		return fmt.Sprintf("type(%d)", byte(t))
	}
}

const (
	// Version is the protocol version in every header.
	Version = 1
	// headerLen is the fixed frame-header size.
	headerLen = 8
	// MaxBody caps a frame body; larger length prefixes are rejected
	// before any allocation, so a corrupt header cannot OOM the reader.
	MaxBody = 16 << 20
	// maxCount caps AID-set and vclock cardinalities (sanity bound well
	// above any real tag set; it keeps count*width arithmetic far from
	// overflow).
	maxCount = 1 << 20
)

var (
	magic0, magic1 = byte('H'), byte('W')

	// ErrFrame reports a malformed frame (bad magic, version, type,
	// truncated or oversized body, trailing bytes). errors.Is-composable.
	ErrFrame = errors.New("hope/wire: malformed frame")
)

// Hello identifies the dialing node; it is the first frame on every
// connection.
type Hello struct {
	Node uint32
	Name string
}

// ClockEntry is one vector-clock component: the highest send sequence
// observed from one node. The clock rides every Msg frame for
// diagnostics and ordering audits; the speculation semantics themselves
// need only the tag set (causality travels in AIDs).
type ClockEntry struct {
	Node uint32
	Seq  uint64
}

// Msg is one tagged application message in transit.
type Msg struct {
	From, To string
	// Seq is the sender's send sequence number (duplicate suppression).
	Seq uint64
	// Tags is the sender's assumption set at send time (§3).
	Tags []ids.AID
	// VClock is the sender node's vector clock, sorted by Node.
	VClock []ClockEntry
	// Payload is the serialized application value: one segment of the
	// link's gob stream (payload.go), meaningful only to the decoder
	// that has seen the link's earlier segments in order.
	Payload []byte
}

// Verdict is one terminal resolution broadcast: AID settled as
// affirmed/denied, decided by node Origin.
type Verdict struct {
	AID      ids.AID
	Affirmed bool
	Origin   uint32
}

// Done is the termination-barrier announcement from one node.
type Done struct {
	Node uint32
}

// enc is an append-only big-endian body builder.
type enc struct{ b []byte }

func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.BigEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) str(s string) { e.u16(uint16(len(s))); e.b = append(e.b, s...) }
func (e *enc) bytes(p []byte) {
	e.u32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// dec is a strict big-endian body reader; every accessor checks bounds
// and latches the first error.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s at offset %d", ErrFrame, what, d.off)
	}
}

func (d *dec) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail(what)
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *dec) u8(what string) byte {
	p := d.take(1, what)
	if p == nil {
		return 0
	}
	return p[0]
}

func (d *dec) u16(what string) uint16 {
	p := d.take(2, what)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint16(p)
}

func (d *dec) u32(what string) uint32 {
	p := d.take(4, what)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

func (d *dec) u64(what string) uint64 {
	p := d.take(8, what)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

func (d *dec) str(what string) string {
	n := d.u16(what)
	return string(d.take(int(n), what))
}

func (d *dec) count(what string) int {
	n := d.u32(what)
	if d.err == nil && n > maxCount {
		d.err = fmt.Errorf("%w: %s count %d exceeds cap %d", ErrFrame, what, n, maxCount)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// finish rejects trailing bytes: a valid body is consumed exactly.
func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrFrame, len(d.b)-d.off)
	}
	return nil
}

// AppendFrame serializes f (a Hello, Msg, Verdict, or Done) onto dst and
// returns the extended slice. The body is built in place behind a header
// whose type and length are patched in once it is known.
func AppendFrame(dst []byte, f any) ([]byte, error) {
	start := len(dst)
	// Size the frame up front so it costs one allocation, not one per
	// doubling: a Msg exactly, the control frames by a floor their
	// bodies (13 bytes at most, plus a node name) fit.
	need := headerLen + 24
	if m, ok := f.(Msg); ok {
		need = headerLen + 2 + len(m.From) + 2 + len(m.To) + 8 + 4 + 8*len(m.Tags) + 4 + 12*len(m.VClock) + 4 + len(m.Payload)
	}
	var typ FrameType
	e := enc{b: append(slices.Grow(dst, need), magic0, magic1, Version, 0, 0, 0, 0, 0)}
	switch v := f.(type) {
	case Hello:
		typ = FrameHello
		if len(v.Name) > math.MaxUint16 {
			return dst, fmt.Errorf("%w: node name too long", ErrFrame)
		}
		e.u32(v.Node)
		e.str(v.Name)
	case Msg:
		typ = FrameMsg
		if len(v.From) > math.MaxUint16 || len(v.To) > math.MaxUint16 {
			return dst, fmt.Errorf("%w: process name too long", ErrFrame)
		}
		e.str(v.From)
		e.str(v.To)
		e.u64(v.Seq)
		e.u32(uint32(len(v.Tags)))
		for _, x := range v.Tags {
			e.u64(uint64(x))
		}
		e.u32(uint32(len(v.VClock)))
		for _, c := range v.VClock {
			e.u32(c.Node)
			e.u64(c.Seq)
		}
		e.bytes(v.Payload)
	case Verdict:
		typ = FrameVerdict
		e.u64(uint64(v.AID))
		if v.Affirmed {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.u32(v.Origin)
	case Done:
		typ = FrameDone
		e.u32(v.Node)
	default:
		return dst, fmt.Errorf("%w: unknown frame %T", ErrFrame, f)
	}
	body := len(e.b) - start - headerLen
	if body > MaxBody {
		return dst, fmt.Errorf("%w: body %d exceeds cap %d", ErrFrame, body, MaxBody)
	}
	e.b[start+3] = byte(typ)
	binary.BigEndian.PutUint32(e.b[start+4:], uint32(body))
	return e.b, nil
}

// DecodeBody parses one frame body of the given type. It never panics on
// malformed input: truncation, oversized counts, bad flags, and trailing
// bytes all return an error wrapping ErrFrame.
func DecodeBody(typ FrameType, body []byte) (any, error) {
	d := &dec{b: body}
	switch typ {
	case FrameHello:
		f := Hello{Node: d.u32("hello node")}
		f.Name = d.str("hello name")
		if err := d.finish(); err != nil {
			return nil, err
		}
		return f, nil
	case FrameMsg:
		f := Msg{From: d.str("msg from")}
		f.To = d.str("msg to")
		f.Seq = d.u64("msg seq")
		if n := d.count("msg tags"); n > 0 {
			f.Tags = make([]ids.AID, 0, min(n, 4096))
			for i := 0; i < n; i++ {
				f.Tags = append(f.Tags, ids.AID(d.u64("msg tag")))
				if d.err != nil {
					return nil, d.err
				}
			}
		}
		if n := d.count("msg vclock"); n > 0 {
			f.VClock = make([]ClockEntry, 0, min(n, 4096))
			for i := 0; i < n; i++ {
				c := ClockEntry{Node: d.u32("vclock node")}
				c.Seq = d.u64("vclock seq")
				if d.err != nil {
					return nil, d.err
				}
				f.VClock = append(f.VClock, c)
			}
		}
		n := d.count("msg payload")
		f.Payload = append([]byte(nil), d.take(n, "msg payload")...)
		if err := d.finish(); err != nil {
			return nil, err
		}
		return f, nil
	case FrameVerdict:
		f := Verdict{AID: ids.AID(d.u64("verdict aid"))}
		switch d.u8("verdict flag") {
		case 0:
		case 1:
			f.Affirmed = true
		default:
			if d.err == nil {
				return nil, fmt.Errorf("%w: verdict flag not 0/1", ErrFrame)
			}
		}
		f.Origin = d.u32("verdict origin")
		if err := d.finish(); err != nil {
			return nil, err
		}
		return f, nil
	case FrameDone:
		f := Done{Node: d.u32("done node")}
		if err := d.finish(); err != nil {
			return nil, err
		}
		return f, nil
	default:
		return nil, fmt.Errorf("%w: unknown frame type %d", ErrFrame, typ)
	}
}

// WriteFrame serializes f and writes it to w, returning the wire size.
func WriteFrame(w io.Writer, f any) (int, error) {
	buf, err := AppendFrame(nil, f)
	if err != nil {
		return 0, err
	}
	return w.Write(buf)
}

// ReadFrame reads and decodes one frame from r. io.EOF is returned
// cleanly only at a frame boundary; mid-frame truncation is
// io.ErrUnexpectedEOF. The second result is the wire size consumed.
func ReadFrame(r io.Reader) (any, int, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, 0, io.EOF
		}
		return nil, 0, err
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return nil, headerLen, fmt.Errorf("%w: bad magic %q", ErrFrame, hdr[:2])
	}
	if hdr[2] != Version {
		return nil, headerLen, fmt.Errorf("%w: version %d, want %d", ErrFrame, hdr[2], Version)
	}
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > MaxBody {
		return nil, headerLen, fmt.Errorf("%w: body %d exceeds cap %d", ErrFrame, n, MaxBody)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, headerLen, err
	}
	f, err := DecodeBody(FrameType(hdr[3]), body)
	return f, headerLen + int(n), err
}

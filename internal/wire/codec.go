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

// enc builds one frame: an append-only big-endian body behind a header
// whose type and length seal patches in once the body is complete.
type enc struct {
	b     []byte
	start int // offset of the frame's header in b
}

// startFrame appends a blank header to dst, with room for a body of
// size bytes, so a frame costs at most one allocation.
func startFrame(dst []byte, size int) enc {
	return enc{b: append(slices.Grow(dst, headerLen+size), magic0, magic1, Version, 0, 0, 0, 0, 0), start: len(dst)}
}

func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.BigEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) str(s string) { e.u16(uint16(len(s))); e.b = append(e.b, s...) }
func (e *enc) bytes(p []byte) {
	e.u32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// seal patches the frame's type and body length into its header.
func (e *enc) seal(typ FrameType) []byte {
	e.b[e.start+3] = byte(typ)
	binary.BigEndian.PutUint32(e.b[e.start+4:], uint32(len(e.b)-e.start-headerLen))
	return e.b
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

// name reads a string, returning the copy held in names when it is
// listed there; the map lookup on the raw bytes does not allocate.
func (d *dec) name(what string, names map[string]string) string {
	b := d.take(int(d.u16(what)), what)
	if s, ok := names[string(b)]; ok {
		return s
	}
	return string(b)
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
// returns the extended slice.
func AppendFrame(dst []byte, f any) ([]byte, error) {
	switch v := f.(type) {
	case Hello:
		if len(v.Name) > math.MaxUint16 {
			return dst, fmt.Errorf("%w: node name too long", ErrFrame)
		}
		e := startFrame(dst, 4+2+len(v.Name))
		e.u32(v.Node)
		e.str(v.Name)
		return e.seal(FrameHello), nil
	case Msg:
		return appendMsg(dst, &v)
	case Verdict:
		return appendVerdict(dst, v), nil
	case Done:
		e := startFrame(dst, 4)
		e.u32(v.Node)
		return e.seal(FrameDone), nil
	default:
		return dst, fmt.Errorf("%w: unknown frame %T", ErrFrame, f)
	}
}

// appendMsg serializes m as a Msg frame onto dst, sized exactly up front.
func appendMsg(dst []byte, m *Msg) ([]byte, error) {
	if len(m.From) > math.MaxUint16 || len(m.To) > math.MaxUint16 {
		return dst, fmt.Errorf("%w: process name too long", ErrFrame)
	}
	size := 2 + len(m.From) + 2 + len(m.To) + 8 + 4 + 8*len(m.Tags) + 4 + 12*len(m.VClock) + 4 + len(m.Payload)
	if size > MaxBody {
		return dst, fmt.Errorf("%w: body %d exceeds cap %d", ErrFrame, size, MaxBody)
	}
	e := startFrame(dst, size)
	e.str(m.From)
	e.str(m.To)
	e.u64(m.Seq)
	e.u32(uint32(len(m.Tags)))
	for _, x := range m.Tags {
		e.u64(uint64(x))
	}
	e.u32(uint32(len(m.VClock)))
	for _, c := range m.VClock {
		e.u32(c.Node)
		e.u64(c.Seq)
	}
	e.bytes(m.Payload)
	return e.seal(FrameMsg), nil
}

// appendVerdict serializes v as a Verdict frame onto dst.
func appendVerdict(dst []byte, v Verdict) []byte {
	e := startFrame(dst, 8+1+4)
	e.u64(uint64(v.AID))
	if v.Affirmed {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.u32(v.Origin)
	return e.seal(FrameVerdict)
}

// DecodeBody parses one frame body of the given type. It never panics on
// malformed input: truncation, oversized counts, bad flags, and trailing
// bytes all return an error wrapping ErrFrame. A Msg owns its fields:
// the payload is copied out of body.
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
		var m Msg
		if err := decodeMsg(body, &m, nil); err != nil {
			return nil, err
		}
		m.Payload = append([]byte(nil), m.Payload...)
		return m, nil
	case FrameVerdict:
		v, err := decodeVerdict(body)
		if err != nil {
			return nil, err
		}
		return v, nil
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

// decodeMsg parses a Msg body into m, reusing m's VClock storage. Tags
// are a fresh slice (the receiver keeps them), Payload aliases body, and
// From and To are the copies held in names when listed there (a nil map
// makes fresh strings). On error m is left partly overwritten.
func decodeMsg(body []byte, m *Msg, names map[string]string) error {
	d := dec{b: body}
	m.From = d.name("msg from", names)
	m.To = d.name("msg to", names)
	m.Seq = d.u64("msg seq")
	m.Tags = nil
	if n := d.count("msg tags"); n > 0 {
		if p := d.take(8*n, "msg tags"); p != nil {
			m.Tags = make([]ids.AID, n)
			for i := range m.Tags {
				m.Tags[i] = ids.AID(binary.BigEndian.Uint64(p[8*i:]))
			}
		}
	}
	m.VClock = m.VClock[:0]
	if n := d.count("msg vclock"); n > 0 {
		p := d.take(12*n, "msg vclock")
		m.VClock = slices.Grow(m.VClock, len(p)/12)
		for ; len(p) > 0; p = p[12:] {
			m.VClock = append(m.VClock, ClockEntry{Node: binary.BigEndian.Uint32(p), Seq: binary.BigEndian.Uint64(p[4:])})
		}
	}
	// A byte length, not a count: take bounds it by the body, which
	// ReadFrame already capped at MaxBody.
	m.Payload = d.take(int(d.u32("msg payload")), "msg payload")
	return d.finish()
}

// decodeVerdict parses a Verdict body.
func decodeVerdict(body []byte) (Verdict, error) {
	d := dec{b: body}
	v := Verdict{AID: ids.AID(d.u64("verdict aid"))}
	switch d.u8("verdict flag") {
	case 0:
	case 1:
		v.Affirmed = true
	default:
		if d.err == nil {
			return Verdict{}, fmt.Errorf("%w: verdict flag not 0/1", ErrFrame)
		}
	}
	v.Origin = d.u32("verdict origin")
	return v, d.finish()
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
	lr := linkReader{r: r}
	typ, body, n, err := lr.read()
	if err != nil {
		return nil, n, err
	}
	f, err := DecodeBody(typ, body)
	return f, n, err
}

// keepBuf bounds the read buffer a linkReader keeps between frames: a
// larger body is read into a buffer of its own, dropped after its frame.
const keepBuf = 64 << 10

// linkReader decodes one inbound link's frames into storage it reuses:
// one read buffer, one Msg, one vector-clock slice. Each Msg and Verdict
// is valid until the next read.
type linkReader struct {
	r   io.Reader
	buf []byte
	// names interns process names: a Msg's From and To are the copies
	// held here when listed, fresh strings otherwise. Read-only.
	names   map[string]string
	msg     Msg
	verdict Verdict
}

// read reads one frame and returns its type, its body — which aliases
// the reader's buffer and is valid until the next read — and the wire
// size consumed.
func (lr *linkReader) read() (FrameType, []byte, int, error) {
	if cap(lr.buf) > keepBuf {
		lr.buf = nil
	}
	lr.buf = slices.Grow(lr.buf[:0], headerLen)[:headerLen]
	hdr := lr.buf
	if _, err := io.ReadFull(lr.r, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, 0, io.EOF
		}
		return 0, nil, 0, err
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return 0, nil, headerLen, fmt.Errorf("%w: bad magic %q", ErrFrame, hdr[:2])
	}
	if hdr[2] != Version {
		return 0, nil, headerLen, fmt.Errorf("%w: version %d, want %d", ErrFrame, hdr[2], Version)
	}
	typ, n := FrameType(hdr[3]), int(binary.BigEndian.Uint32(hdr[4:]))
	if n > MaxBody {
		return 0, nil, headerLen, fmt.Errorf("%w: body %d exceeds cap %d", ErrFrame, n, MaxBody)
	}
	lr.buf = slices.Grow(lr.buf[:0], n)[:n]
	if _, err := io.ReadFull(lr.r, lr.buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, headerLen, err
	}
	return typ, lr.buf, headerLen + n, nil
}

// next reads one frame. A Msg is decoded into lr.msg — its Payload
// aliases the read buffer, while its names and Tags are the caller's to
// keep — and a Verdict into lr.verdict; any other frame is returned.
func (lr *linkReader) next() (FrameType, any, int, error) {
	typ, body, n, err := lr.read()
	if err != nil {
		return 0, nil, n, err
	}
	var f any
	switch typ {
	case FrameMsg:
		err = decodeMsg(body, &lr.msg, lr.names)
	case FrameVerdict:
		lr.verdict, err = decodeVerdict(body)
	default:
		f, err = DecodeBody(typ, body)
	}
	return typ, f, n, err
}

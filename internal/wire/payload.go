package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"

	"hope/internal/engine"
)

// Payloads cross the wire as one gob stream per directed link, cut into
// per-message segments that ride inside the Msg frames: gob because the
// engine's message payloads are `any`, and gob's interface encoding is
// the one stdlib serializer that round-trips a registered concrete type
// through an interface value without a schema; a stream because gob
// describes each type once per stream, so a link pays for a payload
// type's descriptor (and for compiling its codec, on both ends) on the
// first message that carries it instead of on every message. The frame
// layer treats a segment as opaque bytes.
//
// The price is state: a segment decodes only on the decoder that has
// seen every earlier segment of its stream, in order. Each outbound peer
// owns the link's payloadEncoder and each inbound readLoop its
// payloadDecoder; node.go keeps stream order equal to wire order. The
// first byte of a segment says whether it opens a stream or continues
// one, so either end can tell when the other restarted.

const (
	// streamOpen heads the first segment of a stream: the receiver drops
	// its decoder and starts a new one before decoding.
	streamOpen byte = 1
	// streamNext heads every later segment.
	streamNext byte = 2
)

var registerOnce sync.Once

// registerBuiltins registers the concrete types a payload commonly is.
// gob transmits interface values by registered concrete type name, so
// even builtins need registering. engine.AID rides along because tagged
// protocols pass assumption handles inside payload structs (AID has
// GobEncode/GobDecode for its unexported field).
func registerBuiltins() {
	gob.Register(int(0))
	gob.Register(int64(0))
	gob.Register(uint64(0))
	gob.Register("")
	gob.Register(false)
	gob.Register(float64(0))
	gob.Register([]byte(nil))
	gob.Register([]int(nil))
	gob.Register([]string(nil))
	gob.Register(engine.AID{})
}

// RegisterPayload registers a concrete payload type for wire transit.
// Call once per application message type before traffic flows (gob
// panics on conflicting re-registration, so keep types stable).
func RegisterPayload(v any) {
	registerOnce.Do(registerBuiltins)
	gob.Register(v)
}

// payloadEncoder is the sending end of one payload stream. The zero
// value is ready; it is not safe for concurrent use.
type payloadEncoder struct {
	buf bytes.Buffer
	enc *gob.Encoder // nil: the next segment opens a new stream
	v   any          // the value being encoded: Encode(&e.v) escapes nothing new
}

// encode returns v's segment, valid until the next call. A failed encode
// may already have marked type descriptors as sent that the receiver
// will never see, so it abandons the stream: the next segment opens a
// new one and the receiver's decoder restarts with it.
func (e *payloadEncoder) encode(v any) ([]byte, error) {
	e.buf.Reset()
	if e.enc == nil {
		registerOnce.Do(registerBuiltins)
		e.enc = gob.NewEncoder(&e.buf)
		e.buf.WriteByte(streamOpen)
	} else {
		e.buf.WriteByte(streamNext)
	}
	e.v = v
	err := e.enc.Encode(&e.v)
	e.v = nil
	if err != nil {
		e.enc = nil
		return nil, err
	}
	return e.buf.Bytes(), nil
}

// payloadDecoder is the receiving end of one payload stream. The zero
// value is ready; it is not safe for concurrent use. After an error the
// stream is out of step and only a streamOpen segment decodes again.
type payloadDecoder struct {
	r   bytes.Reader
	dec *gob.Decoder
	v   any // the value being decoded: Decode(&d.v) escapes nothing new
}

// decode returns the value in the stream's next segment.
func (d *payloadDecoder) decode(seg []byte) (any, error) {
	switch {
	case len(seg) == 0:
		return nil, errors.New("wire: empty payload segment")
	case seg[0] == streamOpen:
		registerOnce.Do(registerBuiltins)
		// bytes.Reader is an io.ByteReader, so gob reads it unbuffered:
		// Reset below is all it takes to feed it the next segment.
		d.dec = gob.NewDecoder(&d.r)
	case seg[0] != streamNext:
		return nil, fmt.Errorf("wire: payload segment marker %d", seg[0])
	case d.dec == nil:
		return nil, errors.New("wire: payload segment continues a stream that was never opened")
	}
	d.r.Reset(seg[1:])
	err := d.dec.Decode(&d.v)
	v, rest := d.v, d.r.Len()
	d.v = nil
	d.r.Reset(nil) // seg aliases the link's read buffer: hold no reference to it
	if err != nil {
		d.dec = nil
		return nil, err
	}
	if rest != 0 {
		d.dec = nil
		return nil, fmt.Errorf("wire: %d bytes after the value in a payload segment", rest)
	}
	return v, nil
}

// EncodePayload serializes one payload value as a stream of its own: a
// single opening segment, type descriptors included.
func EncodePayload(v any) ([]byte, error) {
	var e payloadEncoder
	return e.encode(v)
}

// DecodePayload is the inverse of EncodePayload.
func DecodePayload(b []byte) (any, error) {
	var d payloadDecoder
	return d.decode(b)
}

package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzFrame drives ReadFrame with arbitrary bytes. Invariants: no panic
// on any input, every successfully-decoded frame re-encodes to a form
// that decodes back equal (the codec is a bijection on its valid
// range), and a link's reader, reusing its storage across the whole
// input, agrees frame by frame with fresh ReadFrame decodes. Seeds cover
// each frame type plus classic corruptions; the checked-in corpus under
// testdata/fuzz extends them.
func FuzzFrame(f *testing.F) {
	for _, fr := range sampleFrames() {
		buf, err := AppendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		if len(buf) > 9 {
			f.Add(buf[:len(buf)-1]) // truncated body
			f.Add(buf[:5])          // truncated header
			dup := append(append([]byte(nil), buf...), buf...)
			f.Add(dup) // two frames back to back
		}
	}
	f.Add([]byte{})
	f.Add([]byte("HW"))
	f.Add([]byte{'H', 'W', Version, byte(FrameMsg), 0xff, 0xff, 0xff, 0xff})
	names := map[string]string{"a": "a", "b": "b", "sink": "sink"}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLinkStream(t, data, names)
		v, n, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		buf, err := AppendFrame(nil, v)
		if err != nil {
			t.Fatalf("re-encode %#v: %v", v, err)
		}
		v2, _, err := ReadFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("re-decode %#v: %v", v, err)
		}
		if !reflect.DeepEqual(v, v2) {
			t.Fatalf("not a fixed point: %#v → %#v", v, v2)
		}
	})
}

// FuzzPayload drives DecodePayload with arbitrary bytes. Invariants: no
// panic on any input, every failure wraps ErrFrame, and every value that
// decodes re-encodes to a segment that decodes back to a value with the
// same encoding. The comparison is on encodings, not values: a NaN float
// is not DeepEqual to itself, but its bits survive. Seeds cover each
// test payload type, their truncations, and codes nobody registered.
func FuzzPayload(f *testing.F) {
	for _, v := range samplePayloads(f) {
		b, err := EncodePayload(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1])
		if len(b) > 8 {
			f.Add(b[:8])
			f.Add(append(bytes.Repeat([]byte{0xff}, 8), b[8:]...))
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodePayload(data)
		if err != nil {
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("decode error %v does not wrap ErrFrame", err)
			}
			return
		}
		b, err := EncodePayload(v)
		if err != nil {
			t.Fatalf("re-encode %#v: %v", v, err)
		}
		v2, err := DecodePayload(b)
		if err != nil {
			t.Fatalf("re-decode %#v: %v", v, err)
		}
		if b2, err := EncodePayload(v2); err != nil || !bytes.Equal(b, b2) {
			t.Fatalf("not a fixed point: %#v → %#v (%v)", v, v2, err)
		}
	})
}

package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"hope/internal/ids"
)

// sampleFrames covers every frame type, with empty and populated
// variants of the variable-length fields.
func sampleFrames() []any {
	return []any{
		Hello{Node: 0, Name: ""},
		Hello{Node: 7, Name: "node7"},
		Msg{From: "a", To: "b", Seq: 1},
		Msg{
			From: "worker0", To: "sink", Seq: 1 << 40,
			Tags:    []ids.AID{1, 2, 1<<48 | 3},
			VClock:  []ClockEntry{{Node: 0, Seq: 12}, {Node: 2, Seq: 9}},
			Payload: []byte("hello across processes"),
		},
		Verdict{AID: 42, Affirmed: true, Origin: 1},
		Verdict{AID: 2<<48 | 17, Affirmed: false, Origin: 2},
		Done{Node: 3},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		buf, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatalf("encode %#v: %v", f, err)
		}
		got, n, err := ReadFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("decode %#v: %v", f, err)
		}
		if n != len(buf) {
			t.Fatalf("decode %#v consumed %d of %d bytes", f, n, len(buf))
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("round trip %#v → %#v", f, got)
		}
	}
}

func TestFrameStream(t *testing.T) {
	var stream []byte
	frames := sampleFrames()
	for _, f := range frames {
		var err error
		stream, err = AppendFrame(stream, f)
		if err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream)
	for i, want := range frames {
		got, _, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %#v, want %#v", i, got, want)
		}
	}
	if _, _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("stream end: %v, want io.EOF", err)
	}
}

func TestFrameRejectsMalformed(t *testing.T) {
	valid, err := AppendFrame(nil, Msg{From: "a", To: "b", Seq: 9, Tags: []ids.AID{1}, Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"bad magic", append([]byte("XX"), valid[2:]...)},
		{"bad version", append([]byte{'H', 'W', 99}, valid[3:]...)},
		{"bad type", append([]byte{'H', 'W', Version, 99}, valid[4:]...)},
		{"oversized length", []byte{'H', 'W', Version, byte(FrameDone), 0xff, 0xff, 0xff, 0xff}},
		{"trailing bytes", func() []byte {
			b := append([]byte(nil), valid...)
			b = append(b, 0) // extra body byte
			b[7]++           // header claims it
			return b
		}()},
	}
	for _, tc := range cases {
		_, _, err := ReadFrame(bytes.NewReader(tc.data))
		if !errors.Is(err, ErrFrame) {
			t.Errorf("%s: err = %v, want ErrFrame", tc.name, err)
		}
	}

	// Mid-frame truncation at every prefix length: never a panic, never
	// a clean EOF (the frame boundary lie must be visible).
	for cut := 1; cut < len(valid); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(valid[:cut]))
		if err == nil || err == io.EOF {
			t.Fatalf("truncated at %d: err = %v, want failure", cut, err)
		}
	}
}

func TestVerdictFlagStrict(t *testing.T) {
	buf, err := AppendFrame(nil, Verdict{AID: 5, Affirmed: true, Origin: 0})
	if err != nil {
		t.Fatal(err)
	}
	buf[headerLen+8] = 2 // corrupt the affirmed flag
	if _, _, err := ReadFrame(bytes.NewReader(buf)); !errors.Is(err, ErrFrame) {
		t.Fatalf("flag=2: err = %v, want ErrFrame", err)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	for _, v := range []any{42, "text", true, []byte{1, 2, 3}, 3.5} {
		b, err := EncodePayload(v)
		if err != nil {
			t.Fatalf("encode %#v: %v", v, err)
		}
		got, err := DecodePayload(b)
		if err != nil {
			t.Fatalf("decode %#v: %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("payload round trip %#v → %#v", v, got)
		}
	}
}

// sameFrame compares two decoded frames, treating a nil and an empty
// slice alike: a linkReader reuses its vclock storage and aliases its
// payload, so where ReadFrame returns nil it may hand out an empty
// slice.
func sameFrame(a, b any) bool {
	ma, ok := a.(Msg)
	mb, okb := b.(Msg)
	if !ok || !okb {
		return reflect.DeepEqual(a, b)
	}
	return ma.From == mb.From && ma.To == mb.To && ma.Seq == mb.Seq &&
		slices.Equal(ma.Tags, mb.Tags) && slices.Equal(ma.VClock, mb.VClock) &&
		bytes.Equal(ma.Payload, mb.Payload)
}

// checkLinkStream reads data through one linkReader, interning names,
// and frame by frame through a fresh ReadFrame of the same bytes. It
// fails on any difference — in the frames, the wire sizes, or where and
// how the stream ends — and when the names or tags handed out for a Msg
// change once the next frame is read. A listed name must come back as
// the table's own copy. It returns the reader and how many frames it
// read before the stream ended or failed.
func checkLinkStream(t *testing.T, data []byte, names map[string]string) (*linkReader, int) {
	t.Helper()
	lr := &linkReader{r: bytes.NewReader(data), names: names}
	// kept is what frame k handed out, as handed out and as a copy.
	type kept struct {
		from, to string
		tags     []ids.AID
		want     Msg
	}
	var prev *kept
	for k, off := 0, 0; ; k++ {
		typ, f, n, err := lr.next()
		want, wn, werr := ReadFrame(bytes.NewReader(data[off:]))
		if prev != nil && (prev.from != prev.want.From || prev.to != prev.want.To || !slices.Equal(prev.tags, prev.want.Tags)) {
			t.Fatalf("frame %d: reading frame %d changed its names or tags to %q→%q %v", k-1, k, prev.from, prev.to, prev.tags)
		}
		if (err == nil) != (werr == nil) || errors.Is(err, io.EOF) != errors.Is(werr, io.EOF) || n != wn {
			t.Fatalf("frame %d: link reader (%d bytes, %v), ReadFrame (%d bytes, %v)", k, n, err, wn, werr)
		}
		if err != nil {
			return lr, k
		}
		got := f
		switch typ {
		case FrameMsg:
			got = lr.msg
		case FrameVerdict:
			got = lr.verdict
		}
		if !sameFrame(got, want) {
			t.Fatalf("frame %d: link reader %#v, ReadFrame %#v", k, got, want)
		}
		prev = nil
		if typ == FrameMsg {
			m := lr.msg
			for _, s := range []string{m.From, m.To} {
				if c, ok := names[s]; ok && unsafe.StringData(c) != unsafe.StringData(s) {
					t.Fatalf("frame %d: name %q is a fresh string, not the interned one", k, s)
				}
			}
			prev = &kept{from: m.From, to: m.To, tags: m.Tags, want: want.(Msg)}
		}
		off += n
	}
}

// TestLinkReaderMatchesReadFrame: a link's reader decodes every frame
// into storage it reuses, yet each frame equals a fresh ReadFrame
// decode of its bytes. The stream puts a Msg with tags and a clock
// before one with neither (what a missed reset leaks into), a Verdict
// between two Msgs, and a maximum-size body before a small one (the
// buffer must shrink back, not hold the big body for the link's
// lifetime). The big Msg is the largest body AppendFrame accepts.
func TestLinkReaderMatchesReadFrame(t *testing.T) {
	// MaxBody less the big Msg's names, seq and three length fields.
	const bigPayload = MaxBody - (2 + len("big") + 2 + len("sink") + 8 + 4 + 4 + 4)
	frames := []any{
		Hello{Node: 1, Name: "node1"},
		Msg{
			From: "worker0", To: "sink", Seq: 1,
			Tags:    []ids.AID{1, 2, 1<<48 | 3},
			VClock:  []ClockEntry{{Node: 0, Seq: 12}, {Node: 1, Seq: 9}},
			Payload: []byte("tagged"),
		},
		Msg{From: "stranger", To: "sink", Seq: 2, Payload: []byte("bare")},
		Msg{From: "worker0", To: "sink", Seq: 3, Tags: []ids.AID{7}, VClock: []ClockEntry{{Node: 0, Seq: 13}}},
		Verdict{AID: 1<<48 | 3, Affirmed: false, Origin: 1},
		Msg{From: "sink", To: "worker0", Seq: 4, Tags: []ids.AID{8, 9}, Payload: []byte("after the verdict")},
		Msg{From: "big", To: "sink", Seq: 5, Payload: make([]byte, bigPayload)},
		Msg{From: "worker0", To: "sink", Seq: 6, Payload: []byte("small")},
		Done{Node: 1},
	}
	var stream []byte
	for _, f := range frames {
		var err error
		if stream, err = AppendFrame(stream, f); err != nil {
			t.Fatalf("encode %T: %v", f, err)
		}
	}
	names := map[string]string{"worker0": "worker0", "sink": "sink"}
	lr, n := checkLinkStream(t, stream, names)
	if n != len(frames) {
		t.Fatalf("the stream ended after %d of %d frames", n, len(frames))
	}
	if cap(lr.buf) > keepBuf {
		t.Fatalf("the link kept a %d-byte read buffer after the maximum-size body", cap(lr.buf))
	}
}

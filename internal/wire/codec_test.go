package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

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

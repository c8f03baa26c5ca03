package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"hope/internal/engine"
)

// Payload types of the codec tests: between them, every supported kind.
type (
	payloadKinds struct {
		B      bool
		I      int
		I8     int8
		I16    int16
		I32    int32
		I64    int64
		U      uint
		U8     uint8
		U16    uint16
		U32    uint32
		U64    uint64
		F32    float32
		F64    float64
		S      string
		Raw    []byte
		Ints   []int
		Rows   []payloadRow
		Any    any
		X      engine.AID
		Level  payloadLevel
		Names  payloadNames
		AIDs   []engine.AID
		Nested [][]string
		Empty  payloadEmpty // encodes to nothing, between two fields that do
		After  int
	}
	payloadRow struct {
		Name  string
		Cells []float64
	}
	// payloadTree contains itself, through a slice.
	payloadTree struct {
		N    int
		Kids []payloadTree
	}
	payloadEmpty struct{}
	payloadLevel int16
	payloadNames []string
)

func init() {
	RegisterPayload(payloadKinds{})
	RegisterPayload(payloadRow{})
	RegisterPayload(payloadTree{})
	RegisterPayload(payloadEmpty{})
}

// testAID is an AID handle that names assumption x.
func testAID(t testing.TB, x uint64) engine.AID {
	var a engine.AID
	if err := a.UnmarshalBinary(binary.BigEndian.AppendUint64(nil, x)); err != nil {
		t.Fatal(err)
	}
	return a
}

// allKinds sets every field of a payloadKinds, most to an extreme.
func allKinds(t testing.TB) payloadKinds {
	return payloadKinds{
		B: true, I: -300, I8: math.MinInt8, I16: math.MaxInt16, I32: -1 << 31, I64: math.MinInt64,
		U: 300, U8: math.MaxUint8, U16: 1, U32: math.MaxUint32, U64: math.MaxUint64,
		F32: -0.5, F64: math.SmallestNonzeroFloat64,
		S: "päyload", Raw: []byte{0, 255}, Ints: []int{3, -3},
		Rows:   []payloadRow{{Name: "r0", Cells: []float64{1, 2}}, {Name: "r1"}},
		Any:    payloadRow{Name: "inside", Cells: []float64{-1}},
		X:      testAID(t, 9),
		Level:  -7,
		Names:  payloadNames{"x", "y"},
		AIDs:   []engine.AID{testAID(t, 1), testAID(t, 2<<48|3)},
		Nested: [][]string{{"a"}, nil, {"b", "c"}},
		After:  5,
	}
}

// samplePayloads covers nil, every registered builtin, every supported
// kind, values nested in interfaces and a type that contains itself.
func samplePayloads(t testing.TB) []any {
	return []any{
		nil,
		42, -1, math.MinInt64, int64(math.MaxInt64), uint64(math.MaxUint64),
		"text", "", true, false, 3.5, math.Inf(-1),
		[]byte{1, 2, 3}, []int{-1, 0, 1 << 40}, []string{"a", "", "c"},
		testAID(t, 1<<48|7),
		allKinds(t),
		payloadKinds{},
		streamBox{N: 1, Inner: streamWrap{Inner: "deep"}},
		streamBox{N: 2, Inner: streamWrap{Inner: streamBox{N: 3, Inner: []int{4}}}},
		streamBox{N: 4}, // a nil interface field
		streamClaim{W: 1, J: 2, X: testAID(t, 5)},
		payloadTree{N: 1, Kids: []payloadTree{{N: 2}, {N: 3, Kids: []payloadTree{{N: 4}}}}},
		payloadEmpty{},
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	for _, v := range samplePayloads(t) {
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
	// An empty slice is sent as its length, and comes back nil.
	b, err := EncodePayload([]int{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodePayload(b); err != nil || !reflect.DeepEqual(got, []int(nil)) {
		t.Fatalf("empty slice decodes to %#v, %v; want a nil []int", got, err)
	}
}

// TestPayloadRejectsMalformed: what cannot be encoded fails the encode,
// and a segment that is not exactly one valid value fails the decode with
// ErrFrame, never a panic.
func TestPayloadRejectsMalformed(t *testing.T) {
	deep := any(0)
	for i := 0; i <= maxDepth; i++ {
		deep = streamWrap{Inner: deep}
	}
	for _, v := range []any{
		streamUnregistered{3},
		streamBox{N: 1, Inner: streamWrap{streamUnregistered{3}}},
		map[string]int{},
		deep,
	} {
		if b, err := EncodePayload(v); err == nil {
			t.Errorf("encoding %T succeeded: %x", v, b)
		}
	}

	code := func(v any) []byte {
		b, err := EncodePayload(v)
		if err != nil {
			t.Fatal(err)
		}
		return b[:8]
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	uv := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	sv := func(x int64) []byte { return binary.AppendVarint(nil, x) }
	valid, err := EncodePayload(allKinds(t))
	if err != nil {
		t.Fatal(err)
	}
	tooDeep := []byte{}
	for i := 0; i <= maxDepth+1; i++ {
		tooDeep = append(tooDeep, code(streamWrap{})...)
	}
	cases := []struct {
		name string
		seg  []byte
	}{
		{"empty", nil},
		{"garbage", []byte{0xff, 0xff, 0xff}},
		{"unknown code", bytes.Repeat([]byte{0xff}, 8)},
		{"trailing bytes", append(append([]byte(nil), valid...), 0)},
		{"bad bool", cat(code(false), []byte{2})},
		{"int overflows its type", cat(code(payloadKinds{}), []byte{0}, sv(0), sv(math.MaxInt8+1))},
		{"uint overflows 64 bits", cat(code(uint64(0)), bytes.Repeat([]byte{0xff}, 10), []byte{1})},
		{"string longer than the segment", cat(code(""), uv(1000), []byte("abc"))},
		{"slice count beyond the segment", cat(code([]int(nil)), uv(1<<40))},
		{"unknown code inside an interface", cat(code(streamWrap{}), bytes.Repeat([]byte{0xee}, 8))},
		{"AID of 7 bytes", cat(code(testAID(t, 1)), []byte{0, 0, 0, 7}, make([]byte, 7))},
		{"AID length beyond the segment", cat(code(testAID(t, 1)), []byte{0xff, 0xff, 0xff, 0xff})},
		{"nested deeper than the limit", tooDeep},
	}
	for _, tc := range cases {
		if v, err := DecodePayload(tc.seg); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: decoded %#v, err = %v, want ErrFrame", tc.name, v, err)
		}
	}
	for cut := 0; cut < len(valid); cut++ {
		if v, err := DecodePayload(valid[:cut]); !errors.Is(err, ErrFrame) {
			t.Fatalf("truncated at %d of %d: decoded %#v, err = %v, want ErrFrame", cut, len(valid), v, err)
		}
	}
}

// TestRegisterPayloadRejects: a type that cannot cross the wire panics
// at registration, naming the path to the part that cannot, and
// registering a type again changes nothing.
func TestRegisterPayloadRejects(t *testing.T) {
	type (
		withMap        struct{ M map[string]int }
		withPtr        struct{ P *int }
		withChan       struct{ C chan int }
		withFunc       struct{ F func() }
		withUnexported struct {
			A int
			b int
		}
		inner   struct{ M map[int]int }
		nested  struct{ Rows []inner }
		inIface struct {
			S fmt.Stringer
		}
	)
	for _, tc := range []struct {
		v    any
		path string
	}{
		{withMap{}, "wire.withMap.M"},
		{withPtr{}, "wire.withPtr.P"},
		{withChan{}, "wire.withChan.C"},
		{withFunc{}, "wire.withFunc.F"},
		{withUnexported{}, "wire.withUnexported.b"},
		{nested{}, "wire.nested.Rows[].M"},
		{inIface{}, "wire.inIface.S"},
		{[]payloadEmpty{}, "[]wire.payloadEmpty"},
		{new(int), "*int"},
		{[2]int{}, "[2]int"},
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			RegisterPayload(tc.v)
			return ""
		}()
		if !strings.Contains(msg, "cannot register "+tc.path+":") {
			t.Errorf("RegisterPayload(%T) panicked with %q, want it to name %s", tc.v, msg, tc.path)
		}
		if registered.Load().byType[reflect.TypeOf(tc.v)] != nil {
			t.Errorf("RegisterPayload(%T) panicked but registered the type", tc.v)
		}
	}
	before := registered.Load()
	RegisterPayload(payloadKinds{})
	RegisterPayload(streamClaim{})
	RegisterPayload(0)
	if registered.Load() != before {
		t.Fatal("registering a registered type again replaced the registry")
	}
}

// TestPayloadAllocs: a warm encode into a buffer with room allocates
// nothing, and a decode allocates only what the receiver keeps — the
// boxed value, set in place, and its strings and slices. A second box
// (reflect's copy of the decoded value) or a decode cursor on the heap
// adds one to each decode.
func TestPayloadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		v      any
		decode float64
	}{
		{streamClaim{W: 1, J: 2, X: testAID(t, 3)}, 1},
		{payloadRow{Name: "line"}, 2},
		{streamBox{N: 1, Inner: streamWrap{Inner: 7}}, 3},
		{"ack", 2},
	} {
		seg, err := EncodePayload(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, 256)
		if n := testing.AllocsPerRun(100, func() { buf, err = appendPayload(buf[:0], tc.v) }); n != 0 || err != nil {
			t.Errorf("encoding %T: %v allocations (%v), want 0", tc.v, n, err)
		}
		if n := testing.AllocsPerRun(100, func() { _, err = DecodePayload(seg) }); n != tc.decode || err != nil {
			t.Errorf("decoding %T: %v allocations (%v), want %v", tc.v, n, err, tc.decode)
		}
	}
}

package wire

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"

	"hope/internal/engine"
)

// Payloads cross the wire as self-contained segments, one per Msg frame:
// an 8-byte big-endian type code, then the value. The code is the
// FNV-1a hash of the type's registered name — its import path and name,
// or its literal for an unnamed or predeclared type — so binaries that
// register the same types agree on codes without exchanging anything.
// Code 0 is a nil payload. A segment depends on nothing sent before it,
// so a link holds no payload state: segments may be encoded, dropped,
// duplicated and decoded in any order. The frame layer treats a segment
// as opaque bytes.
//
// RegisterPayload compiles a type's codec once, by reflection. Values
// are coded by kind:
//
//	bool               one byte, 0 or 1
//	int, int8…int64    zigzag varint
//	uint, uint8…uint64 uvarint
//	float32, float64   IEEE bits, big-endian, 4 or 8 bytes
//	string, []byte     uvarint length, then the bytes
//	other slices       uvarint count, then the elements
//	struct             its fields in order (all must be exported)
//	any                a nested segment: code, then value
//
// A type T whose value has AppendBinary and whose pointer implements
// encoding.BinaryUnmarshaler is coded by those two methods instead, as a
// u32 length and the bytes (engine.AID is one). An empty slice decodes
// as nil. Maps, pointers, chans, funcs, arrays, complex numbers, unsafe
// pointers, interfaces with methods and unexported fields are rejected
// at registration.
//
// Decoding is as strict as the frame layer's: truncation, an unknown
// code, an integer that overflows its type, a bool that is neither 0
// nor 1, a length beyond the bytes left and trailing bytes all return an
// error wrapping ErrFrame, never a panic.

// maxDepth bounds how deeply slices and interface values nest in one
// payload, on both ends: a hostile segment cannot recurse the decoder
// through its stack, and a value too deep to decode fails to encode.
const maxDepth = 100

// segmentHint is the payload room appendMsgValue reserves before the
// segment's size is known: enough for a small struct.
const segmentHint = 64

// binaryAppender is encoding.BinaryAppender, which postdates the
// module's Go version.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

var (
	appenderType    = reflect.TypeOf((*binaryAppender)(nil)).Elem()
	unmarshalerType = reflect.TypeOf((*encoding.BinaryUnmarshaler)(nil)).Elem()
)

// op says how a codec codes its type's values.
type op uint8

const (
	opBool op = iota
	opInt
	opUint
	opFloat32
	opFloat64
	opString
	opBytes
	opSlice
	opStruct
	opAny
	opBinary // AppendBinary/UnmarshalBinary
)

// codec codes the values of one type. Registered types have a code;
// the codecs of their fields and elements do not.
type codec struct {
	op     op
	typ    reflect.Type
	elem   *codec   // opSlice: the element codec
	fields []*codec // opStruct: one codec per field, in order
	min    int      // the fewest bytes a value encodes to
	code   uint64
	// rtype is the type word of an interface holding a typ, for boxing a
	// decoded value without copying it (box).
	rtype unsafe.Pointer
}

// registry maps registered types to their codecs and codes back to
// them. Registration replaces it whole, so lookups take no lock.
type registry struct {
	byType map[reflect.Type]*codec
	byCode map[uint64]*codec
}

var (
	registerMu sync.Mutex
	registered atomic.Pointer[registry]
)

// init registers the types a payload commonly is. engine.AID rides
// along because tagged protocols pass assumption handles inside payload
// structs.
func init() {
	registered.Store(&registry{byType: map[reflect.Type]*codec{}, byCode: map[uint64]*codec{}})
	for _, v := range []any{int(0), int64(0), uint64(0), "", false, float64(0),
		[]byte(nil), []int(nil), []string(nil), engine.AID{}} {
		RegisterPayload(v)
	}
}

// RegisterPayload registers v's concrete type for wire transit,
// compiling its codec. Call it for each application message type before
// traffic flows, on every node; registering a type again does nothing.
// It panics, naming the offending field path, when the type cannot
// cross the wire, and when its code collides with another type's.
func RegisterPayload(v any) {
	t := reflect.TypeOf(v)
	if t == nil {
		panic("wire: RegisterPayload(nil)")
	}
	registerMu.Lock()
	defer registerMu.Unlock()
	r := registered.Load()
	if r.byType[t] != nil {
		return
	}
	c := compile(t, t.String(), map[reflect.Type]*codec{})
	h := fnv.New64a()
	h.Write([]byte(typeName(t)))
	c.code = h.Sum64()
	if r.byCode[c.code] != nil || c.code == 0 {
		panic(fmt.Sprintf("wire: payload type %s has type code %#x, which is taken", typeName(t), c.code))
	}
	zero := reflect.Zero(t).Interface()
	c.rtype = (*eface)(unsafe.Pointer(&zero)).typ
	next := &registry{byType: maps.Clone(r.byType), byCode: maps.Clone(r.byCode)}
	next.byType[t], next.byCode[c.code] = c, c
	registered.Store(next)
}

// typeName is the name gob registered t under.
func typeName(t reflect.Type) string {
	if t.Name() == "" || t.PkgPath() == "" {
		return t.String()
	}
	return t.PkgPath() + "." + t.Name()
}

// compile builds t's codec, panicking with the path of the first part of
// t that cannot cross the wire. done holds the codecs built so far for
// this registration, so a type that contains itself through a slice
// refers back to its own codec.
func compile(t reflect.Type, path string, done map[reflect.Type]*codec) *codec {
	if c := done[t]; c != nil {
		return c
	}
	c := &codec{typ: t}
	done[t] = c
	if t.Implements(appenderType) && reflect.PointerTo(t).Implements(unmarshalerType) {
		c.op, c.min = opBinary, 4
		return c
	}
	switch t.Kind() {
	case reflect.Bool:
		c.op, c.min = opBool, 1
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c.op, c.min = opInt, 1
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		c.op, c.min = opUint, 1
	case reflect.Float32:
		c.op, c.min = opFloat32, 4
	case reflect.Float64:
		c.op, c.min = opFloat64, 8
	case reflect.String:
		c.op, c.min = opString, 1
	case reflect.Interface:
		if t.NumMethod() != 0 {
			panic(fmt.Sprintf("wire: cannot register %s: it is an interface with methods", path))
		}
		c.op, c.min = opAny, 8
	case reflect.Slice:
		c.min = 1
		if t.Elem().Kind() == reflect.Uint8 {
			c.op = opBytes
			break
		}
		c.op = opSlice
		c.elem = compile(t.Elem(), path+"[]", done)
		if c.elem.min == 0 {
			panic(fmt.Sprintf("wire: cannot register %s: its elements encode to nothing", path))
		}
	case reflect.Struct:
		c.op = opStruct
		// While the fields compile, a field that reaches back to t does
		// so through a slice, so t takes at least that slice's count.
		c.min = 1
		sum := 0
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				panic(fmt.Sprintf("wire: cannot register %s.%s: it is unexported", path, f.Name))
			}
			fc := compile(f.Type, path+"."+f.Name, done)
			c.fields = append(c.fields, fc)
			sum += fc.min
		}
		c.min = sum
	default:
		panic(fmt.Sprintf("wire: cannot register %s: it is a %s", path, t.Kind()))
	}
	return c
}

// EncodePayload serializes one payload value as a segment of its own.
func EncodePayload(v any) ([]byte, error) {
	return appendPayload(make([]byte, 0, segmentHint), v)
}

// DecodePayload is the inverse of EncodePayload.
func DecodePayload(b []byte) (any, error) {
	d := dec{b: b}
	return d.payload()
}

// appendPayload appends v's segment to b.
func appendPayload(b []byte, v any) ([]byte, error) {
	if v == nil {
		return binary.BigEndian.AppendUint64(b, 0), nil
	}
	return appendValue(b, reflect.ValueOf(v), 0)
}

// appendValue appends the type code and value of v, which is not an
// interface value, to b.
func appendValue(b []byte, v reflect.Value, depth int) ([]byte, error) {
	c := registered.Load().byType[v.Type()]
	if c == nil {
		return b, fmt.Errorf("wire: payload type %s is not registered", v.Type())
	}
	return c.append(binary.BigEndian.AppendUint64(b, c.code), v, depth)
}

// append appends v's encoding to b.
func (c *codec) append(b []byte, v reflect.Value, depth int) ([]byte, error) {
	if depth > maxDepth {
		return b, fmt.Errorf("wire: payload nests deeper than %d", maxDepth)
	}
	var err error
	switch c.op {
	case opBool:
		if v.Bool() {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	case opInt:
		return binary.AppendVarint(b, v.Int()), nil
	case opUint:
		return binary.AppendUvarint(b, v.Uint()), nil
	case opFloat32:
		return binary.BigEndian.AppendUint32(b, math.Float32bits(float32(v.Float()))), nil
	case opFloat64:
		return binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float())), nil
	case opString:
		s := v.String()
		return append(binary.AppendUvarint(b, uint64(len(s))), s...), nil
	case opBytes:
		p := v.Bytes()
		return append(binary.AppendUvarint(b, uint64(len(p))), p...), nil
	case opSlice:
		n := v.Len()
		b = binary.AppendUvarint(b, uint64(n))
		for i := 0; i < n && err == nil; i++ {
			b, err = c.elem.append(b, v.Index(i), depth+1)
		}
	case opStruct:
		for i, f := range c.fields {
			if b, err = f.append(b, v.Field(i), depth); err != nil {
				break
			}
		}
	case opAny:
		if v.IsNil() {
			return binary.BigEndian.AppendUint64(b, 0), nil
		}
		return appendValue(b, v.Elem(), depth+1)
	case opBinary:
		if v.CanAddr() {
			v = v.Addr() // a pointer boxes without copying the value
		}
		at := len(b)
		if b, err = v.Interface().(binaryAppender).AppendBinary(append(b, 0, 0, 0, 0)); err != nil {
			return b[:at], err
		}
		binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	}
	return b, err
}

// payload decodes one whole segment.
func (d *dec) payload() (any, error) {
	v := d.value(0)
	if err := d.finish(); err != nil {
		return nil, err
	}
	return v, nil
}

// value decodes a type code and the value it heads; nil for code 0 or
// on error.
func (d *dec) value(depth int) any {
	code := d.u64("payload type")
	if d.err != nil || code == 0 {
		return nil
	}
	c := registered.Load().byCode[code]
	if c == nil {
		d.err = fmt.Errorf("%w: unknown payload type code %#x", ErrFrame, code)
		return nil
	}
	p := reflect.New(c.typ)
	c.decode(d, p.Elem(), depth)
	if d.err != nil {
		return nil
	}
	if c.op == opBinary {
		// A leaf's type may be pointer-shaped, which an interface holds
		// directly rather than through a pointer: let reflect box it.
		return p.Elem().Interface()
	}
	return box(c.rtype, p.UnsafePointer())
}

// decode decodes a value into v, which is settable and zero.
func (c *codec) decode(d *dec, v reflect.Value, depth int) {
	if depth > maxDepth {
		d.err = fmt.Errorf("%w: payload nests deeper than %d", ErrFrame, maxDepth)
		return
	}
	switch c.op {
	case opBool:
		switch d.u8("payload bool") {
		case 0:
		case 1:
			v.SetBool(true)
		default:
			if d.err == nil {
				d.err = fmt.Errorf("%w: payload bool not 0/1 at offset %d", ErrFrame, d.off-1)
			}
		}
	case opInt:
		x := d.varint("payload int")
		if v.OverflowInt(x) {
			d.err = fmt.Errorf("%w: payload %d overflows %s", ErrFrame, x, c.typ)
			return
		}
		v.SetInt(x)
	case opUint:
		x := d.uvarint("payload uint")
		if v.OverflowUint(x) {
			d.err = fmt.Errorf("%w: payload %d overflows %s", ErrFrame, x, c.typ)
			return
		}
		v.SetUint(x)
	case opFloat32:
		v.SetFloat(float64(math.Float32frombits(d.u32("payload float32"))))
	case opFloat64:
		v.SetFloat(math.Float64frombits(d.u64("payload float64")))
	case opString:
		if p := d.take(d.length("payload string", 1), "payload string"); len(p) > 0 {
			v.SetString(string(p))
		}
	case opBytes:
		if p := d.take(d.length("payload bytes", 1), "payload bytes"); len(p) > 0 {
			v.SetBytes(append([]byte(nil), p...))
		}
	case opSlice:
		n := d.length("payload slice", c.elem.min)
		if n == 0 {
			return
		}
		v.Grow(n)
		v.SetLen(n)
		for i := 0; i < n && d.err == nil; i++ {
			c.elem.decode(d, v.Index(i), depth+1)
		}
	case opStruct:
		for i, f := range c.fields {
			if f.decode(d, v.Field(i), depth); d.err != nil {
				return
			}
		}
	case opAny:
		if x := d.value(depth + 1); x != nil {
			v.Set(reflect.ValueOf(x))
		}
	case opBinary:
		p := d.take(int(d.u32("payload binary length")), "payload binary")
		if d.err != nil {
			return
		}
		if err := v.Addr().Interface().(encoding.BinaryUnmarshaler).UnmarshalBinary(p); err != nil {
			d.err = fmt.Errorf("%w: payload %s: %v", ErrFrame, c.typ, err)
		}
	}
}

// eface is the layout of an interface value with no methods.
type eface struct {
	typ, data unsafe.Pointer
}

// box returns the interface value of the type whose type word is rtype
// that holds *p, without copying *p: what reflect's Interface would
// return for the value p points to, less the copy it makes of an
// addressable value. Only for types an interface holds through a
// pointer, which every codec type but a leaf is: the pointer-shaped
// kinds are rejected at registration.
func box(rtype, p unsafe.Pointer) any {
	var x any
	*(*eface)(unsafe.Pointer(&x)) = eface{rtype, p}
	return x
}

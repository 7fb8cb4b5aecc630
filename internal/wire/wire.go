// Package wire implements the compact binary serialization used to ship
// middleware messages between the LGV and the remote server, standing in
// for the paper's protobuf encoding. It provides an Encoder/Decoder pair
// over varint/fixed primitives and a kind-tagged frame format with a
// message registry, so a frame received from the network can be decoded
// without knowing its type in advance.
//
// Encoded sizes match the paper's observations: a 360-beam laser scan
// encodes to ≈2.9 KB and a velocity command to ≈48 B, which is what makes
// transmission energy (Eq. 1b) small relative to motor energy.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Encoder appends primitive values to a byte buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with a preallocated buffer.
func NewEncoder(capHint int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capHint)}
}

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the buffer for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a signed (zigzag) varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Float64 appends a fixed 8-byte IEEE-754 value.
func (e *Encoder) Float64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Float32 appends a fixed 4-byte IEEE-754 value.
func (e *Encoder) Float32(v float32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, math.Float32bits(v))
}

// Bool appends a single byte 0/1.
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) BytesField(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Float64Slice appends a length-prefixed []float64.
func (e *Encoder) Float64Slice(v []float64) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.Float64(x)
	}
}

// Int8Slice appends a length-prefixed []int8.
func (e *Encoder) Int8Slice(v []int8) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.buf = append(e.buf, byte(x))
	}
}

// Errors reported by the decoder.
var (
	ErrShortBuffer = errors.New("wire: buffer too short")
	ErrOverflow    = errors.New("wire: varint overflow")
	ErrTooLong     = errors.New("wire: declared length exceeds buffer")
)

// Header encoding versions. The message header is a prefix of every
// payload, so growing it shifts all following fields: old captures
// (bags) must be decoded with the version they were written under. The
// version travels out-of-band — live traffic is always current, and the
// bag container magic identifies the version of archived frames.
const (
	// HeaderV1 is the pre-tracing header: Seq, Stamp, SentAt.
	HeaderV1 = 1
	// HeaderV2 adds the causal trace context: TraceID, ParentSpan.
	HeaderV2 = 2
	// HeaderVersion is the version written by this build.
	HeaderVersion = HeaderV2
)

// Decoder reads primitive values from a byte buffer. The first error
// sticks: once a read fails, all subsequent reads return zero values and
// Err reports the failure, letting callers decode whole structs and check
// the error once.
type Decoder struct {
	buf    []byte
	off    int
	err    error
	hdrVer int
	borrow bool
}

// NewDecoder returns a decoder over the buffer, expecting the current
// header version.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b, hdrVer: HeaderVersion} }

// NewDecoderVersion returns a decoder over a buffer whose message
// headers were written under an older encoding version.
func NewDecoderVersion(b []byte, hdrVer int) *Decoder {
	return &Decoder{buf: b, hdrVer: hdrVer}
}

// HeaderVersion reports the header encoding version the buffer was
// written under; header unmarshalers branch on it.
func (d *Decoder) HeaderVersion() int { return d.hdrVer }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Borrow switches the decoder to borrow mode: BytesField returns
// subslices of the input buffer instead of copies. Hot paths that decode,
// act, and drop the message before reusing the receive buffer (e.g. a
// transport read loop dispatching inline) skip the copy; anything that
// retains the decoded message must not borrow. Returns d for chaining.
func (d *Decoder) Borrow() *Decoder {
	d.borrow = true
	return d
}

// sliceLen reads a length prefix and validates it against the remaining
// bytes assuming elemSize bytes per element. The comparison divides
// Remaining rather than multiplying the untrusted count, so adversarial
// lengths near MaxInt cannot wrap the check.
func (d *Decoder) sliceLen(elemSize int) (int, bool) {
	v := d.Uvarint()
	if d.err != nil {
		return 0, false
	}
	if v > uint64(d.Remaining()/elemSize) {
		d.fail(ErrTooLong)
		return 0, false
	}
	return int(v), true
}

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(err error) { d.err = err }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrShortBuffer)
		} else {
			d.fail(ErrOverflow)
		}
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrShortBuffer)
		} else {
			d.fail(ErrOverflow)
		}
		return 0
	}
	d.off += n
	return v
}

// Float64 reads a fixed 8-byte value.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail(ErrShortBuffer)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// Float32 reads a fixed 4-byte value.
func (d *Decoder) Float32() float32 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 4 {
		d.fail(ErrShortBuffer)
		return 0
	}
	v := math.Float32frombits(binary.LittleEndian.Uint32(d.buf[d.off:]))
	d.off += 4
	return v
}

// Bool reads a single byte 0/1.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.Remaining() < 1 {
		d.fail(ErrShortBuffer)
		return false
	}
	v := d.buf[d.off] != 0
	d.off++
	return v
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n, ok := d.sliceLen(1)
	if !ok {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// BytesField reads a length-prefixed byte slice. The bytes are copied
// unless the decoder is in Borrow mode, in which case a capacity-capped
// subslice of the input buffer is returned.
func (d *Decoder) BytesField() []byte {
	n, ok := d.sliceLen(1)
	if !ok {
		return nil
	}
	if d.borrow {
		b := d.buf[d.off : d.off+n : d.off+n]
		d.off += n
		return b
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:d.off+n])
	d.off += n
	return b
}

// Float64Slice reads a length-prefixed []float64.
func (d *Decoder) Float64Slice() []float64 {
	return d.Float64SliceInto(nil)
}

// Float64SliceInto reads a length-prefixed []float64 into dst's backing
// array when it has the capacity, allocating only when it doesn't. Pass
// buf[:0] to reuse a scratch slice across decodes.
func (d *Decoder) Float64SliceInto(dst []float64) []float64 {
	n, ok := d.sliceLen(8)
	if !ok {
		return nil
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = d.Float64()
	}
	return dst
}

// Int8Slice reads a length-prefixed []int8.
func (d *Decoder) Int8Slice() []int8 {
	return d.Int8SliceInto(nil)
}

// Int8SliceInto reads a length-prefixed []int8 into dst's backing array
// when it has the capacity, allocating only when it doesn't.
func (d *Decoder) Int8SliceInto(dst []int8) []int8 {
	n, ok := d.sliceLen(1)
	if !ok {
		return nil
	}
	if cap(dst) < n {
		dst = make([]int8, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = int8(d.buf[d.off+i])
	}
	d.off += n
	return dst
}

// ---------------------------------------------------------------------------
// Kind-tagged frames.

// Message is a value that can travel over the wire. Kind identifies the
// concrete type in the frame header; kinds must be registered.
type Message interface {
	Kind() uint16
	MarshalWire(e *Encoder)
	UnmarshalWire(d *Decoder) error
}

var registry = map[uint16]func() Message{}

// Register associates a message kind with a factory for decoding. It
// panics on duplicate registration (a programming error caught at init).
func Register(kind uint16, factory func() Message) {
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("wire: duplicate message kind %d", kind))
	}
	registry[kind] = factory
}

// encPool recycles Encoders across frame encodes. Scan frames grow the
// buffer to ~3 KB once; after warm-up the steady-state message plane
// encodes without allocating.
var encPool = sync.Pool{New: func() any { return NewEncoder(64) }}

// GetEncoder borrows a reset Encoder from the process-wide pool. Return
// it with PutEncoder once the encoded bytes have been consumed; the
// buffer returned by Bytes is invalid after that.
func GetEncoder() *Encoder {
	e := encPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder returns a borrowed Encoder to the pool.
func PutEncoder(e *Encoder) { encPool.Put(e) }

// EncodeFrameTo serializes a message with its kind header into e,
// appending to its current contents.
func EncodeFrameTo(e *Encoder, m Message) {
	e.Uvarint(uint64(m.Kind()))
	m.MarshalWire(e)
}

// EncodeFrame serializes a message with its kind header into a fresh
// buffer. Hot paths that can scope the buffer's lifetime should prefer
// GetEncoder + EncodeFrameTo + PutEncoder to reuse buffers instead.
func EncodeFrame(m Message) []byte {
	e := NewEncoder(64)
	EncodeFrameTo(e, m)
	return e.Bytes()
}

// EncodedSize returns the frame size of a message without retaining any
// buffer, using a pooled encoder. Callers that only need the size (queue
// accounting, radio models) avoid EncodeFrame's per-call allocation.
func EncodedSize(m Message) int {
	e := GetEncoder()
	EncodeFrameTo(e, m)
	n := e.Len()
	PutEncoder(e)
	return n
}

// DecodeFrame parses a frame produced by EncodeFrame, dispatching on the
// registered kind.
func DecodeFrame(b []byte) (Message, error) {
	return DecodeFrameVersion(b, HeaderVersion)
}

// DecodeFrameVersion parses a frame written under an older header
// encoding version (archived bags); live traffic uses DecodeFrame.
func DecodeFrameVersion(b []byte, hdrVer int) (Message, error) {
	d := NewDecoderVersion(b, hdrVer)
	kind := uint16(d.Uvarint())
	if d.Err() != nil {
		return nil, d.Err()
	}
	factory, ok := registry[kind]
	if !ok {
		return nil, fmt.Errorf("wire: unknown message kind %d", kind)
	}
	m := factory()
	if err := m.UnmarshalWire(d); err != nil {
		return nil, err
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return m, nil
}

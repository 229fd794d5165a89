// Package snap is the varint-packed field codec shared by the simulator's
// component snapshots. It is the serialization half of checkpointing: each
// component (cache, pipeline, prefetcher, directory, ...) appends its state
// to a Writer and reads it back from a Reader in the same order. The
// containing envelope — magic, format version, CRC — is owned by
// internal/sim, mirroring the binary trace format's discipline
// (internal/trace/binary.go); this package only packs fields.
//
// The Reader is sticky-error: decode methods return zero values after the
// first failure, so restore code reads fields linearly and checks Err once.
// Snapshots are CRC-verified by the envelope before any Reader sees them, so
// a decode error here means truncation or a writer/reader order mismatch,
// not silent corruption.
package snap

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer appends packed fields to a growing buffer.
type Writer struct {
	buf []byte
	tmp [binary.MaxVarintLen64]byte
}

// NewWriter returns a Writer with the given initial capacity hint.
func NewWriter(capHint int) *Writer {
	return &Writer{buf: make([]byte, 0, capHint)}
}

// Data returns the bytes written so far. The slice aliases the Writer's
// buffer; further writes may invalidate it.
func (w *Writer) Data() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U64 appends v as a uvarint.
func (w *Writer) U64(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf = append(w.buf, w.tmp[:n]...)
}

// I64 appends v as a zigzag varint.
func (w *Writer) I64(v int64) {
	n := binary.PutVarint(w.tmp[:], v)
	w.buf = append(w.buf, w.tmp[:n]...)
}

// Int appends v as a zigzag varint.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// U8 appends one raw byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends b as one byte (0 or 1).
func (w *Writer) Bool(b bool) {
	if b {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 appends v as its IEEE 754 bits, little-endian, fixed 8 bytes.
func (w *Writer) F64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	w.buf = append(w.buf, b[:]...)
}

// Bytes appends b length-prefixed.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader decodes fields from a buffer in write order.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

// fail records the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snap: "+format, args...)
	}
}

// U64 decodes a uvarint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("truncated uvarint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// I64 decodes a zigzag varint.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// Int decodes a zigzag varint as an int.
func (r *Reader) Int() int { return int(r.I64()) }

// Count decodes an element count for a restore loop and sanity-checks it
// against the buffer: every element encodes to at least elemMin bytes, so a
// count exceeding Remaining()/elemMin cannot come from a well-formed
// snapshot. Restore code must size allocations and loop bounds from Count,
// never from a bare Int — a corrupt (or hostile, CRC-valid) snapshot may
// hold an arbitrary value where a count belongs, and failing here turns
// that into a decode error instead of a runaway allocation.
func (r *Reader) Count(elemMin int) int {
	v := r.I64()
	if r.err != nil {
		return 0
	}
	if elemMin < 1 {
		elemMin = 1
	}
	if v < 0 || v > int64(len(r.buf)-r.pos)/int64(elemMin) {
		r.fail("implausible element count %d at offset %d (%d bytes remain, >=%d per element)",
			v, r.pos, len(r.buf)-r.pos, elemMin)
		return 0
	}
	return int(v)
}

// Tail returns the unread bytes (nil after an error) for a restore loop
// that decodes a run of fields itself, with Uvarint, Varint and raw bytes,
// instead of one sticky-error call per field. The loop reports what it
// consumed with Skip.
func (r *Reader) Tail() []byte {
	if r.err != nil {
		return nil
	}
	return r.buf[r.pos:]
}

// Skip advances past n bytes of Tail.
func (r *Reader) Skip(n int) {
	if r.err != nil {
		return
	}
	if n < 0 || n > len(r.buf)-r.pos {
		r.fail("skip of %d bytes exceeds remaining %d at offset %d", n, len(r.buf)-r.pos, r.pos)
		return
	}
	r.pos += n
}

// Uvarint is binary.Uvarint for decoding from Tail, unrolled for values of
// up to four bytes: the fields restore loops and the trace record decoder
// read are nearly all that short. n <= 0 means b is truncated or the value
// overflows.
func Uvarint(b []byte) (uint64, int) {
	if len(b) < 4 {
		return binary.Uvarint(b)
	}
	v := uint64(b[0])
	if v < 0x80 {
		return v, 1
	}
	v &= 0x7f
	x := uint64(b[1])
	if x < 0x80 {
		return v | x<<7, 2
	}
	v |= (x & 0x7f) << 7
	x = uint64(b[2])
	if x < 0x80 {
		return v | x<<14, 3
	}
	v |= (x & 0x7f) << 14
	x = uint64(b[3])
	if x < 0x80 {
		return v | x<<21, 4
	}
	return binary.Uvarint(b)
}

// Varint decodes a zigzag varint from b like Uvarint.
func Varint(b []byte) (int64, int) {
	ux, n := Uvarint(b)
	return int64(ux>>1) ^ -int64(ux&1), n
}

// U8 decodes one raw byte.
func (r *Reader) U8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail("truncated byte at offset %d", r.pos)
		return 0
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

// Bool decodes one byte as a bool; any value other than 0 or 1 is an error
// (it means the read cursor has desynchronized from the write order).
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.fail("bad bool byte %d at offset %d", v, r.pos-1)
		return false
	}
	return v == 1
}

// F64 decodes 8 little-endian bytes as a float64.
func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.pos < 8 {
		r.fail("truncated float64 at offset %d", r.pos)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return v
}

// Bytes decodes a length-prefixed byte slice. The result aliases the
// Reader's buffer.
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.fail("byte slice of %d exceeds remaining %d at offset %d", n, len(r.buf)-r.pos, r.pos)
		return nil
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

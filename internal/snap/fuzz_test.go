package snap

import (
	"encoding/binary"
	"testing"
)

// FuzzSnapReader drives a Reader over arbitrary bytes with an input-derived
// schedule of decode calls. The contract under test is the one every
// Restore path in the tree leans on: a Reader over corrupt bytes must fail
// with a sticky error and zero values, never panic, and Count must never
// admit a count the remaining bytes cannot hold.
func FuzzSnapReader(f *testing.F) {
	// A well-formed stream covering every encoder, so mutations start from
	// deep inside the decode branches rather than the first length check.
	w := NewWriter(0)
	w.U64(1 << 40)
	w.I64(-5)
	w.Int(7)
	w.U8(0xAB)
	w.Bool(true)
	w.F64(3.5)
	w.Bytes([]byte("payload"))
	f.Add(append([]byte{0}, w.Data()...))
	f.Add([]byte{})
	f.Add([]byte{7, 0xFF}) // truncated varint
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sched, buf := data[0], data[1:]
		r := NewReader(buf)
		for i := 0; i < 64; i++ {
			before := r.Remaining()
			switch (int(sched) + i) % 9 {
			case 0:
				r.U64()
			case 1:
				r.I64()
			case 2:
				r.Int()
			case 3:
				r.U8()
			case 4:
				r.Bool()
			case 5:
				r.F64()
			case 6:
				b := r.Bytes()
				if r.Err() == nil && len(b) > before {
					t.Fatalf("Bytes returned %d bytes with only %d in the buffer", len(b), before)
				}
			case 7:
				n := r.Count(3)
				if r.Err() == nil && n > before/3 {
					t.Fatalf("Count(3) admitted %d with only %d bytes remaining", n, before)
				}
			case 8:
				// The Tail/Skip path restore loops use: the fast-path
				// decoders must agree with encoding/binary, and a skip
				// past a failed decode (n <= 0) must fail the Reader.
				b := r.Tail()
				v, n := Uvarint(b)
				if bv, bn := binary.Uvarint(b); v != bv || n != bn {
					t.Fatalf("Uvarint = %d, %d; binary.Uvarint = %d, %d", v, n, bv, bn)
				}
				if sv, sn := Varint(b); sn > 0 {
					if bv, _ := binary.Varint(b); sv != bv {
						t.Fatalf("Varint = %d; binary.Varint = %d", sv, bv)
					}
				}
				if n <= 0 {
					n = len(b) + 1
				}
				r.Skip(n)
			}
			if r.Err() != nil {
				break
			}
		}
		if r.Err() == nil {
			return
		}
		// Sticky failure: every decoder must return its zero value from
		// here on, so restore loops wound down by Count cannot spin on
		// garbage.
		first := r.Err()
		if r.U64() != 0 || r.I64() != 0 || r.U8() != 0 || r.Bool() || r.F64() != 0 ||
			r.Bytes() != nil || r.Count(1) != 0 || r.Tail() != nil {
			t.Fatal("reads after a decode error returned non-zero values")
		}
		if r.Err() != first {
			t.Fatalf("sticky error changed after failure: %v -> %v", first, r.Err())
		}
	})
}

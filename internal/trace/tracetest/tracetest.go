// Package tracetest provides the shared seed-trace construction used by
// the binary-format fuzz targets (trace's fuzz_test.go) and the committed
// corpus generator (trace/gen_fuzz_corpus.go), so the two can never drift
// apart on which record flavors the corpus exercises.
package tracetest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/impsim/imp/internal/mem"
	"github.com/impsim/imp/internal/trace"
)

// TinyProgram builds a small hand-rolled two-core program covering every
// record flavor (load, dependent load, store, software prefetch, barrier,
// gap spill) and two region kinds.
func TinyProgram() *trace.Program {
	space := mem.NewSpace()
	idx := space.AllocInt32("idx", 16)
	vals := space.AllocFloat64("vals", 16)
	for i := range idx.Int32s() {
		idx.Int32s()[i] = int32(15 - i)
	}
	for i := range vals.Float64s() {
		vals.Float64s()[i] = float64(i) * 1.5
	}
	p := &trace.Program{Space: space}
	for c := 0; c < 2; c++ {
		b := trace.NewBuilder()
		for i := 0; i < 4; i++ {
			b.Load(1, idx.Base+mem.Addr(4*i), 4, trace.KindStream)
			b.LoadDep(2, vals.Base+mem.Addr(8*i), 8, trace.KindIndirect)
			b.Compute(3)
		}
		b.Barrier()
		b.SWPrefetch(3, vals.Base, 3)
		b.Store(4, vals.Base+mem.Addr(8*c), 8, trace.KindOther)
		b.Compute(1 << 17) // spills into gap-only records
		b.Barrier()
		p.Traces = append(p.Traces, b.Trace())
	}
	return p
}

// EncodeTiny returns TinyProgram in the binary trace format.
func EncodeTiny() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := TinyProgram().WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("tracetest: encoding tiny program: %w", err)
	}
	return buf.Bytes(), nil
}

// Corruptions derives the structured corruption seeds from a valid
// encoding: bad magic, unsupported version, truncation, an in-payload
// bit flip (caught only by the CRC), and two CRC-valid framing faults —
// trailing bytes and a section longer than its records.
func Corruptions(valid []byte) map[string][]byte {
	badMagic := append([]byte(nil), valid...)
	copy(badMagic, "JUNK")
	badVersion := append([]byte(nil), valid...)
	badVersion[4] = 0xff
	bitflip := append([]byte(nil), valid...)
	bitflip[len(bitflip)/2] ^= 0x40
	return map[string][]byte{
		"badmagic":        badMagic,
		"badversion":      badVersion,
		"truncated":       valid[:len(valid)/2],
		"bitflip":         bitflip,
		"trailing":        Trailing(valid),
		"section-overrun": SectionOverrun(valid),
	}
}

// Trailing appends four junk bytes between the last core section and the
// CRC of a valid encoding, and re-seals the CRC.
func Trailing(valid []byte) []byte {
	out := append([]byte(nil), valid[:len(valid)-4]...)
	out = append(out, 0xde, 0xad, 0xbe, 0xef)
	return reseal(out)
}

// SectionOverrun grows the last core section's declared payload length by
// one, appends one junk byte to its payload so the file stays well framed,
// and re-seals the CRC: the section's records then stop one byte short of
// the section's end.
func SectionOverrun(valid []byte) []byte {
	hdr, payload := lastSection(valid)
	count, n1 := binary.Uvarint(valid[hdr:])
	barriers, n2 := binary.Uvarint(valid[hdr+n1:])
	plen, _ := binary.Uvarint(valid[hdr+n1+n2:])
	out := append([]byte(nil), valid[:hdr]...)
	out = binary.AppendUvarint(out, count)
	out = binary.AppendUvarint(out, barriers)
	out = binary.AppendUvarint(out, plen+1)
	out = append(out, valid[payload:payload+int(plen)]...)
	out = append(out, 0)
	return reseal(out)
}

// reseal appends the CRC of body, as WriteTo does.
func reseal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// lastSection walks a valid encoding (layout in trace/binary.go) and
// returns the offsets of the last core section's header and payload.
func lastSection(valid []byte) (hdr, payload int) {
	cores := int(binary.LittleEndian.Uint32(valid[8:12]))
	regions := int(binary.LittleEndian.Uint32(valid[12:16]))
	pos := 16
	uv := func() uint64 {
		v, n := binary.Uvarint(valid[pos:])
		pos += n
		return v
	}
	for i := 0; i < regions; i++ {
		kind := mem.Kind(valid[pos])
		pos++
		pos += int(uv()) // name
		uv()             // base
		count := int(uv())
		switch kind {
		case mem.KindInt32:
			pos += 4 * count
		case mem.KindInt64, mem.KindFloat64:
			pos += 8 * count
		default:
			pos += count
		}
	}
	for c := 0; c < cores; c++ {
		hdr = pos
		uv() // records
		uv() // barriers
		plen := int(uv())
		payload = pos
		pos += plen
	}
	return hdr, payload
}

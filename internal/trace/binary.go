// Binary trace format.
//
// Traces replayed at full scale hold millions of 24-byte records per core;
// rebuilding them from the workload generators dominates experiment setup
// time. The binary format makes traces cheap to persist and re-load: a
// versioned container holding the address-space image plus per-core record
// streams encoded as varint deltas (~6-8 bytes per access record instead
// of 24), terminated by a CRC.
//
// Layout (all integers little-endian or uvarint/zigzag-varint):
//
//	magic   "IMPT"
//	u16     format version (FormatVersion)
//	u8      flags (bit 0: SpinBarriers)
//	u8      reserved (0)
//	u32     core count
//	u32     region count
//	regions, each:
//	    u8       mem.Kind
//	    uvarint  name length, name bytes
//	    uvarint  base address
//	    uvarint  element count
//	    raw      element data, little-endian (float64 as IEEE 754 bits)
//	cores, each:
//	    uvarint  record count
//	    uvarint  barrier count
//	    uvarint  payload byte length
//	    payload  delta-encoded records (see below)
//	u32     IEEE CRC-32 of everything above
//
// Record encoding, with per-core running (prevAddr, prevPC) state:
//
//	u8  flags
//	barrier / gap-only records: uvarint gap — nothing else
//	access records:
//	    u8      kind<<6 | (size-1)    (size in 1..64)
//	    uvarint gap
//	    zigzag  pc  - prevPC
//	    zigzag  addr - prevAddr
//
// The per-core section header carries record and barrier counts so a
// streaming reader (FileSource) can validate barrier alignment across
// cores without decoding every record. A section's records must use
// exactly its payload length, and only the CRC follows the last section.
// ReadProgram verifies the CRC; FileSource, which never reads the whole
// file, does not. Both decode records with the one recordDecoder, over
// byte slices: DecodeProgram over the input itself, FileSource over a
// window it refills from the file.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/impsim/imp/internal/mem"
	"github.com/impsim/imp/internal/snap"
)

// FormatVersion is the binary trace format version written by WriteTo.
// Readers reject any other version.
const FormatVersion = 1

var traceMagic = [4]byte{'I', 'M', 'P', 'T'}

// ErrVersion is returned (wrapped) when a trace file was written by an
// incompatible format version.
var ErrVersion = errors.New("unsupported trace format version")

// Guards for length fields read from untrusted input, so a corrupted
// header cannot drive huge allocations or near-endless loops. The decode
// paths additionally bound every variable-size field by the input size
// (an N-element region needs N*elemSize bytes of input to back it).
const (
	maxCores   = 1 << 20 // far beyond the largest square mesh simulated
	maxRegions = 1 << 16
	maxNameLen = 1 << 12
)

// WriteTo encodes the program in the binary trace format. It validates the
// program first (the encoding assumes record invariants) and returns the
// number of bytes written.
func (p *Program) WriteTo(w io.Writer) (int64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	crc := crc32.NewIEEE()
	cw := &countingWriter{w: io.MultiWriter(w, crc)}
	bw := bufio.NewWriterSize(cw, 1<<16)

	bw.Write(traceMagic[:])
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], FormatVersion)
	bw.Write(u16[:])
	var flags byte
	if p.SpinBarriers {
		flags |= 1
	}
	bw.WriteByte(flags)
	bw.WriteByte(0)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(p.Cores()))
	bw.Write(u32[:])
	regions := p.Space.Regions()
	binary.LittleEndian.PutUint32(u32[:], uint32(len(regions)))
	bw.Write(u32[:])

	var varbuf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(varbuf[:], v)
		bw.Write(varbuf[:n])
	}
	for _, r := range regions {
		if err := writeRegion(bw, putUvarint, r); err != nil {
			return cw.n, err
		}
	}

	// Each core's payload is encoded into a reusable buffer first: the
	// section header carries its byte length so streaming readers can seek
	// between cores.
	var payload []byte
	for _, t := range p.Traces {
		payload = appendRecords(payload[:0], t.Records)
		barriers := 0
		for _, r := range t.Records {
			if r.IsBarrier() {
				barriers++
			}
		}
		putUvarint(uint64(len(t.Records)))
		putUvarint(uint64(barriers))
		putUvarint(uint64(len(payload)))
		bw.Write(payload)
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	// CRC of everything written so far, outside the checksummed stream.
	binary.LittleEndian.PutUint32(u32[:], crc.Sum32())
	if _, err := w.Write(u32[:]); err != nil {
		return cw.n, err
	}
	return cw.n + 4, cw.err
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	if err != nil && c.err == nil {
		c.err = err
	}
	return n, err
}

func writeRegion(bw *bufio.Writer, putUvarint func(uint64), r *mem.Region) error {
	bw.WriteByte(byte(r.Kind()))
	putUvarint(uint64(len(r.Name)))
	bw.WriteString(r.Name)
	putUvarint(uint64(r.Base))
	putUvarint(uint64(r.Len()))
	var b8 [8]byte
	switch r.Kind() {
	case mem.KindInt32:
		for _, v := range r.Int32s() {
			binary.LittleEndian.PutUint32(b8[:4], uint32(v))
			bw.Write(b8[:4])
		}
	case mem.KindInt64:
		for _, v := range r.Int64s() {
			binary.LittleEndian.PutUint64(b8[:], uint64(v))
			bw.Write(b8[:])
		}
	case mem.KindFloat64:
		for _, v := range r.Float64s() {
			binary.LittleEndian.PutUint64(b8[:], math.Float64bits(v))
			bw.Write(b8[:])
		}
	case mem.KindBytes:
		bw.Write(r.Bytes())
	default:
		return fmt.Errorf("trace: cannot encode region %q of kind %v", r.Name, r.Kind())
	}
	return nil
}

// appendRecords delta-encodes recs onto buf.
func appendRecords(buf []byte, recs []Record) []byte {
	var prevAddr uint64
	var prevPC uint32
	var tmp [binary.MaxVarintLen64]byte
	for _, r := range recs {
		buf = append(buf, r.Flags)
		if r.IsBarrier() || r.IsGapOnly() {
			n := binary.PutUvarint(tmp[:], uint64(r.Gap))
			buf = append(buf, tmp[:n]...)
			continue
		}
		buf = append(buf, byte(r.Kind)<<6|byte(r.Size-1))
		n := binary.PutUvarint(tmp[:], uint64(r.Gap))
		buf = append(buf, tmp[:n]...)
		n = binary.PutVarint(tmp[:], int64(int32(uint32(r.PC)-prevPC)))
		buf = append(buf, tmp[:n]...)
		n = binary.PutVarint(tmp[:], int64(uint64(r.Addr)-prevAddr))
		buf = append(buf, tmp[:n]...)
		prevPC = uint32(r.PC)
		prevAddr = uint64(r.Addr)
	}
	return buf
}

// maxRecordLen bounds one encoded record: the flags and kind/size bytes
// plus three varints (gap, pc delta, addr delta).
const maxRecordLen = 2 + 3*binary.MaxVarintLen64

// errVarintOverflow reports a varint longer than 64 bits.
var errVarintOverflow = errors.New("varint overflows a 64-bit integer")

// uvarint decodes a uvarint with snap's unrolled decoder: most record
// fields (gaps, pc deltas) take one byte, address deltas two to four.
func uvarint(b []byte) (uint64, int, error) {
	v, n := snap.Uvarint(b)
	if n <= 0 {
		return 0, 0, varintErr(n)
	}
	return v, n, nil
}

// varint decodes a zigzag varint.
func varint(b []byte) (int64, int, error) {
	v, n := snap.Varint(b)
	if n <= 0 {
		return 0, 0, varintErr(n)
	}
	return v, n, nil
}

func varintErr(n int) error {
	if n == 0 {
		return io.ErrUnexpectedEOF
	}
	return errVarintOverflow
}

// recordDecoder decodes one core's delta-encoded record stream. It is the
// only record decoder: DecodeProgram runs it over a core's section of the
// CRC-checked input, a FileSource stream over its refilled window.
type recordDecoder struct {
	prevAddr uint64
	prevPC   uint32
}

// next decodes the record at the front of b into rec and returns its
// encoded length. A b that ends mid-record yields io.ErrUnexpectedEOF.
func (d *recordDecoder) next(b []byte, rec *Record) (int, error) {
	if len(b) == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	*rec = Record{Flags: b[0]}
	if rec.IsBarrier() || rec.IsGapOnly() {
		gap, n, err := uvarint(b[1:])
		if err != nil {
			return 0, err
		}
		if gap > math.MaxUint16 {
			return 0, fmt.Errorf("trace: gap %d overflows", gap)
		}
		rec.Gap = uint16(gap)
		return 1 + n, nil
	}
	if len(b) < 2 {
		return 0, io.ErrUnexpectedEOF
	}
	ks := b[1]
	rec.Kind = Kind(ks >> 6)
	rec.Size = (ks & 0x3f) + 1
	if rec.Kind > KindIndirect {
		return 0, fmt.Errorf("trace: bad kind %d", rec.Kind)
	}
	off := 2
	// Gaps and pc deltas nearly always fit one byte: take those inline.
	var gap uint64
	if off < len(b) && b[off] < 0x80 {
		gap = uint64(b[off])
		off++
	} else {
		v, n, err := uvarint(b[off:])
		if err != nil {
			return 0, err
		}
		if v > math.MaxUint16 {
			return 0, fmt.Errorf("trace: gap %d overflows", v)
		}
		gap = v
		off += n
	}
	rec.Gap = uint16(gap)
	var dpc int64
	if off < len(b) && b[off] < 0x80 {
		dpc = int64(b[off]>>1) ^ -int64(b[off]&1)
		off++
	} else {
		v, n, err := varint(b[off:])
		if err != nil {
			return 0, err
		}
		dpc = v
		off += n
	}
	daddr, n, err := varint(b[off:])
	if err != nil {
		return 0, err
	}
	off += n
	d.prevPC += uint32(dpc)
	rec.PC = PC(d.prevPC)
	d.prevAddr += uint64(daddr)
	rec.Addr = mem.Addr(d.prevAddr)
	return off, nil
}

// windowSize is the refill buffer of a windowed reader and the chunk in
// which region data is copied out.
const windowSize = 32 << 10

// reader is the byte cursor every decode goes through. Over a whole input
// (DecodeProgram) buf is that input and nothing is ever copied; over a
// ReaderAt (FileSource) buf is a window that fill slides forward and
// refills from [next, end).
type reader struct {
	buf []byte
	pos int
	ra  io.ReaderAt // nil when buf holds the whole input
	// next is the input offset just past buf; end bounds what may be read.
	next, end int64
}

func newWindowReader(ra io.ReaderAt, off, end int64) reader {
	return reader{buf: make([]byte, 0, windowSize), ra: ra, next: off, end: end}
}

// offset returns the input offset of the cursor.
func (r *reader) offset() int64 { return r.next - int64(len(r.buf)-r.pos) }

// remaining returns the number of unread input bytes.
func (r *reader) remaining() int64 { return r.end - r.offset() }

// fill buffers at least n bytes past the cursor, or every byte that remains
// when fewer do; n must not exceed windowSize. It fails only on an I/O
// error.
func (r *reader) fill(n int) error {
	if len(r.buf)-r.pos >= n || r.ra == nil || r.next == r.end {
		return nil
	}
	r.buf = r.buf[:copy(r.buf[:cap(r.buf)], r.buf[r.pos:])]
	r.pos = 0
	want := int64(cap(r.buf) - len(r.buf))
	if left := r.end - r.next; want > left {
		want = left
	}
	got, err := r.ra.ReadAt(r.buf[len(r.buf):len(r.buf)+int(want)], r.next)
	r.buf = r.buf[:len(r.buf)+got]
	r.next += int64(got)
	if int64(got) < want && err != nil && err != io.EOF {
		return err
	}
	return nil
}

// take returns the next n bytes (n <= windowSize, as for fill) and
// advances past them. The slice aliases the window: it is valid until the
// next call on r.
func (r *reader) take(n int) ([]byte, error) {
	if err := r.fill(n); err != nil {
		return nil, err
	}
	if len(r.buf)-r.pos < n {
		return nil, io.ErrUnexpectedEOF
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// skip advances past n bytes without reading them.
func (r *reader) skip(n int64) error {
	if n > r.remaining() {
		return io.ErrUnexpectedEOF
	}
	if buffered := int64(len(r.buf) - r.pos); n <= buffered {
		r.pos += int(n)
		return nil
	}
	r.next = r.offset() + n
	r.buf, r.pos = r.buf[:0], 0
	return nil
}

func (r *reader) uvarint() (uint64, error) {
	if r.pos < len(r.buf) && r.buf[r.pos] < 0x80 {
		v := r.buf[r.pos]
		r.pos++
		return uint64(v), nil
	}
	if err := r.fill(binary.MaxVarintLen64); err != nil {
		return 0, err
	}
	v, n, err := uvarint(r.buf[r.pos:])
	r.pos += n
	return v, err
}

// ReadProgram reads r to the end and decodes it with DecodeProgram. Use
// NewFileSource to stream records instead.
func ReadProgram(r io.Reader) (*Program, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading input: %w", err)
	}
	return DecodeProgram(data)
}

// DecodeProgram decodes a program written by WriteTo, verifying the
// trailing CRC. It parses straight from data: regions are bulk-copied and
// each core's records land in a slice of exactly their count. The whole
// program is materialized in memory; it does not retain data.
func DecodeProgram(data []byte) (*Program, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("trace: input too short (%d bytes): %w", len(data), io.ErrUnexpectedEOF)
	}
	body, foot := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(foot)
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("trace: CRC mismatch: file says %#x, content is %#x", want, got)
	}

	maxBytes := int64(len(body))
	r := &reader{buf: body, next: maxBytes, end: maxBytes}
	hdr, err := r.header()
	if err != nil {
		return nil, err
	}
	space, err := r.regions(hdr.regions, maxBytes)
	if err != nil {
		return nil, err
	}
	p := &Program{Space: space, SpinBarriers: hdr.spin, Traces: make([]*Trace, hdr.cores)}
	for c := range p.Traces {
		count, _, plen, err := r.coreHeader(maxBytes)
		if err != nil {
			return nil, fmt.Errorf("trace: core %d: %w", c, err)
		}
		sec, err := r.take(int(plen))
		if err != nil {
			return nil, fmt.Errorf("trace: core %d payload: %w", c, err)
		}
		// count <= plen/2 (coreHeader), so the input backs this allocation.
		recs := make([]Record, count)
		var dec recordDecoder
		off := 0
		for i := range recs {
			n, err := dec.next(sec[off:], &recs[i])
			if err != nil {
				return nil, fmt.Errorf("trace: core %d record %d: %w", c, i, err)
			}
			off += n
		}
		if off != len(sec) {
			return nil, fmt.Errorf("trace: core %d: %d records use %d of the section's %d payload bytes", c, count, off, len(sec))
		}
		p.Traces[c] = &Trace{Records: recs}
	}
	if n := r.remaining(); n != 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes after the last core section", n)
	}
	return p, nil
}

type header struct {
	spin    bool
	cores   int
	regions int
}

func (r *reader) header() (header, error) {
	var h header
	magic, err := r.take(len(traceMagic))
	if err != nil {
		return h, fmt.Errorf("trace: reading magic: %w", err)
	}
	if [4]byte(magic) != traceMagic {
		return h, fmt.Errorf("trace: bad magic %q (not an IMP trace file)", magic)
	}
	b, err := r.take(12)
	if err != nil {
		return h, fmt.Errorf("trace: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint16(b[0:2]); v != FormatVersion {
		return h, fmt.Errorf("trace: %w %d (this build reads version %d)", ErrVersion, v, FormatVersion)
	}
	h.spin = b[2]&1 != 0
	h.cores = int(binary.LittleEndian.Uint32(b[4:8]))
	h.regions = int(binary.LittleEndian.Uint32(b[8:12]))
	if h.cores <= 0 || h.cores > maxCores || h.regions < 0 || h.regions > maxRegions {
		return h, fmt.Errorf("trace: implausible header (cores=%d regions=%d)", h.cores, h.regions)
	}
	return h, nil
}

// regions decodes n regions. maxBytes is the total input size; no single
// region may claim more element data than that.
func (r *reader) regions(n int, maxBytes int64) (*mem.Space, error) {
	space := mem.NewSpace()
	for i := 0; i < n; i++ {
		if err := r.region(space, maxBytes); err != nil {
			return nil, fmt.Errorf("trace: region %d: %w", i, err)
		}
	}
	return space, nil
}

func (r *reader) region(space *mem.Space, maxBytes int64) error {
	kb, err := r.take(1)
	if err != nil {
		return err
	}
	kind := mem.Kind(kb[0])
	elemSize, err := kindElemSize(kind)
	if err != nil {
		return err
	}
	nameLen, err := r.uvarint()
	if err != nil {
		return fmt.Errorf("bad name length: %w", err)
	}
	if nameLen > maxNameLen {
		return fmt.Errorf("implausible name length %d", nameLen)
	}
	name, err := r.take(int(nameLen))
	if err != nil {
		return err
	}
	regionName := string(name)
	base, err := r.uvarint()
	if err != nil {
		return err
	}
	count, err := r.uvarint()
	if err != nil {
		return err
	}
	if count > uint64(maxBytes)/uint64(elemSize) {
		return fmt.Errorf("region %q claims %d elements, more than the input can back", regionName, count)
	}
	reg, err := space.AllocAt(regionName, kind, mem.Addr(base), int(count))
	if err != nil {
		return err
	}
	// Element data is copied out in window-sized chunks, little-endian.
	switch kind {
	case mem.KindInt32:
		for dst := reg.Int32s(); len(dst) > 0; {
			k := min(len(dst), windowSize/4)
			b, err := r.take(4 * k)
			if err != nil {
				return err
			}
			for i := range dst[:k] {
				dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
			}
			dst = dst[k:]
		}
	case mem.KindInt64:
		for dst := reg.Int64s(); len(dst) > 0; {
			k := min(len(dst), windowSize/8)
			b, err := r.take(8 * k)
			if err != nil {
				return err
			}
			for i := range dst[:k] {
				dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
			}
			dst = dst[k:]
		}
	case mem.KindFloat64:
		for dst := reg.Float64s(); len(dst) > 0; {
			k := min(len(dst), windowSize/8)
			b, err := r.take(8 * k)
			if err != nil {
				return err
			}
			for i := range dst[:k] {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			}
			dst = dst[k:]
		}
	case mem.KindBytes:
		for dst := reg.Bytes(); len(dst) > 0; {
			b, err := r.take(min(len(dst), windowSize))
			if err != nil {
				return err
			}
			dst = dst[copy(dst, b):]
		}
	}
	return nil
}

// coreHeader decodes one per-core section header. maxBytes is the total
// input size: a section cannot hold more payload than the input, and every
// encoded record takes at least two bytes.
func (r *reader) coreHeader(maxBytes int64) (count, barriers, payloadLen uint64, err error) {
	if count, err = r.uvarint(); err != nil {
		return 0, 0, 0, err
	}
	if barriers, err = r.uvarint(); err != nil {
		return 0, 0, 0, err
	}
	if payloadLen, err = r.uvarint(); err != nil {
		return 0, 0, 0, err
	}
	if payloadLen > uint64(maxBytes) || count > payloadLen/2 {
		return 0, 0, 0, fmt.Errorf("implausible core section (records=%d bytes=%d)", count, payloadLen)
	}
	return count, barriers, payloadLen, nil
}

// kindElemSize mirrors mem.Kind element widths for input validation.
func kindElemSize(k mem.Kind) (int, error) {
	switch k {
	case mem.KindInt32:
		return 4, nil
	case mem.KindInt64, mem.KindFloat64:
		return 8, nil
	case mem.KindBytes:
		return 1, nil
	default:
		return 0, fmt.Errorf("unknown region kind %d", k)
	}
}

// WriteFile encodes the program to path via a temp file and atomic rename.
func (p *Program) WriteFile(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".imptrace-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := p.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

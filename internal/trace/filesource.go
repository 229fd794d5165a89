package trace

import (
	"fmt"
	"io"
	"os"

	"github.com/impsim/imp/internal/mem"
)

// FileSource is a Source backed by an encoded trace (see binary.go) that
// decodes each core's records on the fly. Only the address-space image and
// the per-core section index are materialized up front; replay memory for
// records is bounded by the simulator's lookahead window, so arbitrarily
// long traces replay in constant record memory.
//
// The underlying ReaderAt must support concurrent ReadAt calls (os.File
// and bytes.Reader do); each Open stream reads its own file section
// through a refilled byte window, decoded by the same record decoder as
// DecodeProgram. FileSource does not verify the file CRC — use ReadProgram
// for a fully checked, materialized load.
type FileSource struct {
	ra     io.ReaderAt
	closer io.Closer // non-nil when opened via OpenFile
	space  *mem.Space
	spin   bool
	cores  []coreSection
}

type coreSection struct {
	off      int64 // absolute payload offset
	bytes    int64
	count    uint64
	barriers uint64
}

// NewFileSource indexes an encoded trace of the given total size in
// bytes. It reads the header, the address space and the per-core section
// table, but no records. Unlike ReadProgram it never sees the whole input,
// so it cannot verify the CRC; the size bounds every length field instead,
// keeping corrupted headers from driving huge allocations.
func NewFileSource(ra io.ReaderAt, size int64) (*FileSource, error) {
	if size <= 0 {
		return nil, fmt.Errorf("trace: non-positive trace size %d", size)
	}
	r := newWindowReader(ra, 0, size)
	hdr, err := r.header()
	if err != nil {
		return nil, err
	}
	space, err := r.regions(hdr.regions, size)
	if err != nil {
		return nil, err
	}
	fs := &FileSource{ra: ra, space: space, spin: hdr.spin}
	for c := 0; c < hdr.cores; c++ {
		count, barriers, plen, err := r.coreHeader(size)
		if err != nil {
			return nil, fmt.Errorf("trace: core %d section: %w", c, err)
		}
		fs.cores = append(fs.cores, coreSection{
			off: r.offset(), bytes: int64(plen), count: count, barriers: barriers,
		})
		if err := r.skip(int64(plen)); err != nil {
			return nil, fmt.Errorf("trace: core %d payload: %w", c, err)
		}
	}
	if n := r.remaining(); n != 4 {
		return nil, fmt.Errorf("trace: %d bytes follow the last core section, want the 4-byte CRC", n)
	}
	return fs, nil
}

// OpenFile opens an encoded trace file as a streaming Source. Close the
// source when done.
func OpenFile(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	fs, err := NewFileSource(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	fs.closer = f
	return fs, nil
}

// Close releases the underlying file (no-op for NewFileSource over a
// caller-owned reader).
func (fs *FileSource) Close() error {
	if fs.closer == nil {
		return nil
	}
	return fs.closer.Close()
}

// Cores implements Source.
func (fs *FileSource) Cores() int { return len(fs.cores) }

// Memory implements Source.
func (fs *FileSource) Memory() *mem.Space { return fs.space }

// SpinBarrierWait implements Source.
func (fs *FileSource) SpinBarrierWait() bool { return fs.spin }

// Validate implements Source. Record-level invariants (sizes, mapped
// addresses) were enforced when the file was encoded; here the cheap
// cross-core invariant is checked against the section headers without
// decoding any records.
func (fs *FileSource) Validate() error {
	if len(fs.cores) == 0 {
		return fmt.Errorf("trace: program has no cores")
	}
	want := fs.cores[0].barriers
	for c, cs := range fs.cores {
		if cs.barriers != want {
			return fmt.Errorf("trace: core %d has %d barriers, core 0 has %d", c, cs.barriers, want)
		}
	}
	return nil
}

// Records returns the total record count across cores (header metadata; no
// decoding).
func (fs *FileSource) Records() uint64 {
	var n uint64
	for _, cs := range fs.cores {
		n += cs.count
	}
	return n
}

// Open implements Source: an independent decoding cursor over one core's
// section.
func (fs *FileSource) Open(core int) RecordStream {
	cs := fs.cores[core]
	return &fileStream{
		r:         newWindowReader(fs.ra, cs.off, cs.off+cs.bytes),
		remaining: cs.count,
	}
}

// fileStream decodes records lazily into a sliding buffer. The buffer only
// ever holds the simulator's current window plus lookahead, so memory stays
// bounded regardless of trace length.
type fileStream struct {
	r         reader // bounded to this core's section
	dec       recordDecoder
	remaining uint64
	buf       []Record
	head      int
	err       error
}

// compactAt bounds the dead prefix retained in buf between Advance calls.
const compactAt = 4096

func (s *fileStream) Window(max int) []Record {
	for len(s.buf)-s.head < max && s.remaining > 0 && s.err == nil {
		r := &s.r
		if len(r.buf)-r.pos < maxRecordLen {
			if s.err = r.fill(maxRecordLen); s.err != nil {
				break
			}
		}
		s.buf = append(s.buf, Record{})
		n, err := s.dec.next(r.buf[r.pos:], &s.buf[len(s.buf)-1])
		if err != nil {
			s.buf = s.buf[:len(s.buf)-1]
			s.err = err
			break
		}
		r.pos += n
		s.remaining--
		if s.remaining == 0 {
			if left := r.remaining(); left != 0 {
				s.err = fmt.Errorf("trace: %d bytes follow the section's last record", left)
			}
		}
	}
	end := s.head + max
	if end > len(s.buf) {
		end = len(s.buf)
	}
	return s.buf[s.head:end]
}

func (s *fileStream) Advance(n int) {
	s.head += n
	if s.head >= len(s.buf) {
		s.buf = s.buf[:0]
		s.head = 0
	} else if s.head >= compactAt {
		kept := copy(s.buf, s.buf[s.head:])
		s.buf = s.buf[:kept]
		s.head = 0
	}
}

func (s *fileStream) Err() error { return s.err }

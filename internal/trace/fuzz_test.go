package trace_test

// Native fuzz targets for the binary trace format. The decoder consumes
// untrusted bytes (trace files travel between machines and live in shared
// caches), so the contract under fuzzing is: never panic, never allocate
// unboundedly — corrupt input yields an error, nothing else. Seed corpus
// files live under testdata/fuzz/ (regenerate with
// `go run gen_fuzz_corpus.go`); the harness additionally seeds the same
// valid encode in-process (internal/trace/tracetest) so mutation always
// starts from structured input.
//
// Run locally:
//
//	go test -run '^$' -fuzz '^FuzzReadProgram$' -fuzztime 30s ./internal/trace
//	go test -run '^$' -fuzz '^FuzzRecordStream$' -fuzztime 30s ./internal/trace

import (
	"bytes"
	"slices"
	"testing"

	"github.com/impsim/imp/internal/trace"
	"github.com/impsim/imp/internal/trace/tracetest"
)

func addSeeds(f *testing.F) []byte {
	valid, err := tracetest.EncodeTiny()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, data := range tracetest.Corruptions(valid) {
		f.Add(data)
	}
	return valid
}

// FuzzReadProgram: the materializing, checksum-verifying load path must
// return an error on any corrupt input — panics and unbounded allocation
// are the bugs being hunted.
func FuzzReadProgram(f *testing.F) {
	addSeeds(f)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := trace.ReadProgram(bytes.NewReader(data))
		if err != nil {
			if p != nil {
				t.Fatal("ReadProgram returned both a program and an error")
			}
			return
		}
		// A successfully decoded program must survive its own invariants
		// without panicking; Validate may still reject it (the CRC protects
		// integrity, not semantics).
		// And it must re-encode if valid — a decode/encode loop must not
		// crash on anything the decoder accepted.
		if p.Validate() == nil {
			if _, err := p.WriteTo(bytes.NewBuffer(nil)); err != nil {
				t.Fatalf("decoded program failed to re-encode: %v", err)
			}
		}
	})
}

// FuzzRecordStream: the streaming path (header + section index + lazy
// per-core decode) must surface corruption through RecordStream.Err, never
// a panic, and must terminate for any input. It is also a differential
// oracle for FileSource's refill window: whenever DecodeProgram accepts an
// input, the FileSource over the same bytes must accept it too and stream
// every core's records exactly as DecodeProgram materialized them.
func FuzzRecordStream(f *testing.F) {
	addSeeds(f)
	f.Add([]byte("IMPT"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, perr := trace.DecodeProgram(data)
		fs, err := trace.NewFileSource(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if perr == nil {
				t.Fatalf("DecodeProgram accepts the input, NewFileSource rejects it: %v", err)
			}
			return
		}
		_ = fs.Validate()
		_ = fs.Records()
		if perr == nil && fs.Cores() != p.Cores() {
			t.Fatalf("FileSource has %d cores, DecodeProgram %d", fs.Cores(), p.Cores())
		}
		for c := 0; c < fs.Cores(); c++ {
			s := fs.Open(c)
			var got []trace.Record
			for {
				w := s.Window(97)
				if len(w) == 0 {
					break
				}
				for _, r := range w {
					// Touch every accessor; corrupt records must stay
					// representable even when semantically invalid.
					_ = r.Instructions()
					_ = r.String()
				}
				got = append(got, w...)
				s.Advance(len(w))
			}
			err := s.Err() // corruption lands here, never as a panic
			if perr != nil {
				continue
			}
			if err != nil {
				t.Fatalf("core %d: DecodeProgram accepts the input, the stream fails: %v", c, err)
			}
			if !slices.Equal(got, p.Traces[c].Records) {
				t.Fatalf("core %d: streamed %d records differ from the %d DecodeProgram decoded",
					c, len(got), len(p.Traces[c].Records))
			}
		}
	})
}

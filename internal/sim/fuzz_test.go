package sim

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"sync"
	"testing"

	"github.com/impsim/imp/internal/trace"
	"github.com/impsim/imp/internal/workload"
)

// fuzzWorkload/fuzzCores/fuzzScale pin the trace every FuzzRestore input is
// decoded against. gen_fuzz_corpus.go builds the committed seeds with the
// same values; change them together.
const (
	fuzzWorkload = "spmv"
	fuzzCores    = 4 // the mesh requires a square core count
	fuzzScale    = 0.02
)

var fuzzProgOnce = sync.OnceValues(func() (*trace.Program, error) {
	return workload.Build(fuzzWorkload, workload.Options{Cores: fuzzCores, Scale: fuzzScale})
})

// fuzzConfig shrinks the caches far below Table 1 so a snapshot is a few KB
// instead of ~100KB: the fuzz engine minimizes every coverage-expanding
// mutation, and minimization cost scales with seed size. The IMP prefetcher
// is enabled so its table restore paths are in the fuzzed surface.
// gen_fuzz_corpus.go mirrors this; change them together.
func fuzzConfig() Config {
	cfg := DefaultConfig(fuzzCores)
	cfg.L1SizeBytes = 4 << 10
	cfg.L1Ways = 2
	cfg.L2SliceBytes = 8 << 10
	cfg.L2Ways = 2
	cfg.Prefetcher = PrefetchIMP
	return cfg
}

// envelope wraps payload in a valid snapshot frame (magic, version, flags,
// CRC) so fuzz inputs reach the component restore paths behind the
// integrity checks instead of dying at the CRC gate.
func envelope(payload []byte) []byte {
	out := make([]byte, 0, snapshotHeaderLen+len(payload)+4)
	out = append(out, snapshotMagic[:]...)
	out = binary.LittleEndian.AppendUint16(out, SnapshotFormatVersion)
	out = append(out, 0, 0)
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// FuzzRestore feeds Restore arbitrary bytes, both raw and re-enveloped with
// a valid header and CRC. The contract: corrupt input must produce an
// error, never a panic, an unbounded allocation or a runaway loop; input
// that happens to decode must yield a system whose accessors work.
func FuzzRestore(f *testing.F) {
	prog, err := fuzzProgOnce()
	if err != nil {
		f.Fatalf("building %s workload: %v", fuzzWorkload, err)
	}
	cfg := fuzzConfig()

	// Seed with a genuine mid-run snapshot and its bare payload; the
	// committed corpus (gen_fuzz_corpus.go) layers corruptions on top.
	sys, err := New(prog.Source(), cfg)
	if err != nil {
		f.Fatal(err)
	}
	if err := sys.RunUntil(maxRecords(prog) / 2); err != nil {
		f.Fatal(err)
	}
	valid, err := sys.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[snapshotHeaderLen : len(valid)-4])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tryRestore(t, prog, cfg, data)
		tryRestore(t, prog, cfg, envelope(data))
	})
}

// tryRestore runs one Restore attempt; errors are the expected outcome for
// corrupt input, panics are the bug class under test.
func tryRestore(t *testing.T, prog *trace.Program, cfg Config, data []byte) {
	t.Helper()
	sys, err := Restore(prog.Source(), cfg, data)
	if err != nil {
		return
	}
	// Decoded state may be semantically garbage (wrong counters); it must
	// still be structurally sound enough to re-snapshot.
	if _, err := sys.Snapshot(); err != nil {
		t.Fatalf("restored system cannot re-snapshot: %v", err)
	}
}

// FuzzMetricsBlob feeds Metrics.UnmarshalBinary arbitrary bytes — the
// checkpoint cache persists finished runs in this form. The contract:
// truncation, trailing bytes and a PerCoreCycles count the input cannot
// hold are errors, never panics; accepted input re-marshals to exactly the
// same bytes.
func FuzzMetricsBlob(f *testing.F) {
	prog, err := fuzzProgOnce()
	if err != nil {
		f.Fatalf("building %s workload: %v", fuzzWorkload, err)
	}
	m, err := Run(prog, fuzzConfig())
	if err != nil {
		f.Fatal(err)
	}
	valid, err := m.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Metrics
		if err := got.UnmarshalBinary(data); err != nil {
			return
		}
		re, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted input re-marshals differently:\n in  %x\n out %x", data, re)
		}
	})
}

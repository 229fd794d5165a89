package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/impsim/imp/internal/trace"
	"github.com/impsim/imp/internal/workload"
)

// Finished systems hand their caches and directory tables back to pools
// that later systems draw from. These tests pin that a recycled array never
// leaks state into the next run: results must match fresh-array runs byte
// for byte.

// metricsJSON renders m for byte-level comparison.
func metricsJSON(t testing.TB, m *Metrics) []byte {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func poolProgram(t testing.TB, cores int) *trace.Program {
	t.Helper()
	p, err := workload.Build("spmv", workload.Options{Cores: cores, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// partialConfig is IMP with partial accessing: sectored L1 and L2 caches,
// so a geometry of its own in the pools.
func partialConfig(cores int) Config {
	cfg := DefaultConfig(cores)
	cfg.Prefetcher = PrefetchIMP
	cfg.Partial = PartialNoCDRAM
	return cfg
}

// TestRecycledArraysMatchFresh runs B, then A (IMP-partial, sectored L1),
// then B again: the second B runs on arrays the first B and A left dirty.
func TestRecycledArraysMatchFresh(t *testing.T) {
	p := poolProgram(t, 4)
	b := DefaultConfig(4)
	b.Prefetcher = PrefetchIMP
	first := metricsJSON(t, run(t, p, b))
	run(t, p, partialConfig(4))
	if again := metricsJSON(t, run(t, p, b)); !bytes.Equal(first, again) {
		t.Fatalf("rerun on recycled arrays diverged:\n first: %s\n again: %s", first, again)
	}
}

// TestRestoreOnDirtyPool snapshots X mid-run, dirties the pools with other
// configurations (one of X's own geometry), then restores X and finishes
// it: the result must equal an uninterrupted run of X.
func TestRestoreOnDirtyPool(t *testing.T) {
	p := poolProgram(t, 4)
	x := DefaultConfig(4)
	x.Prefetcher = PrefetchIMP
	want := metricsJSON(t, run(t, p, x))

	sys, err := New(p.Source(), x)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunUntil(maxRecords(p) / 2); err != nil {
		t.Fatal(err)
	}
	data, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sameGeometry := DefaultConfig(4)
	sameGeometry.Prefetcher = PrefetchStream
	run(t, p, sameGeometry)
	run(t, p, partialConfig(4))

	rest, err := Restore(p.Source(), x, data)
	if err != nil {
		t.Fatal(err)
	}
	m, err := rest.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := metricsJSON(t, m); !bytes.Equal(got, want) {
		t.Fatalf("restore on a dirty pool diverged from the uninterrupted run:\n want: %s\n got:  %s", want, got)
	}
}

// TestConcurrentRunsAcrossGeometries runs systems of different geometries
// at once, so the pools are shared between goroutines (run it under
// -race); every result must match its sequential reference.
func TestConcurrentRunsAcrossGeometries(t *testing.T) {
	p := poolProgram(t, 4)
	small := DefaultConfig(4)
	small.L1SizeBytes = 8 << 10
	small.L2SliceBytes = 64 << 10
	cfgs := []Config{DefaultConfig(4), partialConfig(4), small}
	want := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = metricsJSON(t, run(t, p, cfg))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 2*len(cfgs)*3)
	for rep := 0; rep < 2; rep++ {
		for i, cfg := range cfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 3; k++ {
					m, err := Run(p, cfg)
					if err != nil {
						errs <- err.Error()
						return
					}
					if got, _ := json.Marshal(m); !bytes.Equal(got, want[i]) {
						errs <- fmt.Sprintf("config %d diverged under concurrency", i)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// BenchmarkSnapshotRestore isolates the snapshot restore path: restore a
// finished 16-core IMP replay and Finish it (metric finalization only).
// Bytes are the snapshot size.
func BenchmarkSnapshotRestore(b *testing.B) {
	p, err := workload.Build("spmv", workload.Options{Cores: 16, Scale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(16)
	cfg.Prefetcher = PrefetchIMP
	sys, err := New(p.Source(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.RunUntil(math.MaxInt); err != nil {
		b.Fatal(err)
	}
	data, err := sys.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rest, err := Restore(p.Source(), cfg, data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rest.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

package imp

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/impsim/imp/internal/ckptcache"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// testWorkloads keeps sweep tests fast while still exercising two distinct
// trace builds per experiment.
var testWorkloads = []string{"spmv", "pagerank"}

// TestExperimentsDeterministicAcrossParallelism is the harness's core
// guarantee: every experiment produces byte-identical tables at parallelism
// 1 and 8 (same derived seeds, ordered collection, no shared mutable state).
func TestExperimentsDeterministicAcrossParallelism(t *testing.T) {
	for _, id := range Experiments.IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			opts := func(par int) ExpOptions {
				return ExpOptions{
					Cores: 4, Scale: 0.05, Workloads: testWorkloads,
					RunOptions: RunOptions{Seed: 7, Parallelism: par},
				}
			}
			serial, err := Experiments.Run(id, opts(1))
			if err != nil {
				t.Fatalf("parallelism 1: %v", err)
			}
			parallel, err := Experiments.Run(id, opts(8))
			if err != nil {
				t.Fatalf("parallelism 8: %v", err)
			}
			sj, err := serial.JSON()
			if err != nil {
				t.Fatal(err)
			}
			pj, err := parallel.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sj, pj) {
				t.Errorf("tables differ between parallelism 1 and 8:\n--- j1\n%s\n--- j8\n%s", sj, pj)
			}
			if serial.String() != parallel.String() {
				t.Error("rendered text differs between parallelism 1 and 8")
			}
		})
	}
}

// TestExperimentGolden pins small-scale paper numbers so refactors cannot
// silently change them. Regenerate with: go test -run Golden -update ./...
func TestExperimentGolden(t *testing.T) {
	const tol = 1e-9 // runs are deterministic; tolerance only absorbs FP noise
	for _, id := range []string{"fig2", "table3"} {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := Experiments.Run(id, ExpOptions{
				Cores: 4, Scale: 0.05, Workloads: testWorkloads,
			})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden_"+id+".json")
			if *update {
				data, err := tbl.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			var want Table
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			if tbl.ID != want.ID || len(tbl.Rows) != len(want.Rows) {
				t.Fatalf("shape changed: got %d rows of %q, want %d of %q",
					len(tbl.Rows), tbl.ID, len(want.Rows), want.ID)
			}
			for ri, row := range tbl.Rows {
				wrow := want.Rows[ri]
				if row.Label != wrow.Label || len(row.Values) != len(wrow.Values) {
					t.Fatalf("row %d changed: got %v, want %v", ri, row, wrow)
				}
				for ci, v := range row.Values {
					w := wrow.Values[ci]
					if diff := math.Abs(v - w); diff > tol*math.Max(1, math.Abs(w)) {
						t.Errorf("%s[%s][%s] = %v, golden %v (paper number drifted)",
							id, row.Label, tbl.Columns[ci], v, w)
					}
				}
			}
		})
	}
}

// TestExperimentGoldenCheckpointed is the checkpointing correctness gate:
// with checkpoints on, fig2 and table3 must stay BYTE-identical to the
// goldens at parallelism 1 and 8. The cache directory is shared across all
// four runs, so later runs are served from checkpoints earlier runs
// published — the exact cross-experiment reuse path (fig2 and table3 share
// every workload's Perfect and Baseline cells) must not perturb a single
// bit.
func TestExperimentGoldenCheckpointed(t *testing.T) {
	ckptcache.Flush()
	defer ckptcache.Flush()
	ResetCheckpointStats()
	dir := t.TempDir()
	for _, id := range []string{"fig2", "table3"} {
		golden, err := os.ReadFile(filepath.Join("testdata", "golden_"+id+".json"))
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		for _, par := range []int{1, 8} {
			tbl, err := Experiments.Run(id, ExpOptions{
				Cores: 4, Scale: 0.05, Workloads: testWorkloads,
				RunOptions: RunOptions{
					Parallelism: par,
					Checkpoints: CheckpointPolicy{Enabled: true, Dir: dir},
				},
			})
			if err != nil {
				t.Fatalf("%s -j %d: %v", id, par, err)
			}
			data, err := tbl.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(data, '\n'), golden) {
				t.Errorf("%s -j %d: checkpointed run differs from golden bytes", id, par)
			}
		}
	}
	// Four runs of three systems per workload, over four distinct systems
	// (Ideal, Baseline, Perfect, IMP): each simulates once, the rest hit.
	s := GetCheckpointStats()
	points, distinct := uint64(4*3*len(testWorkloads)), uint64(4*len(testWorkloads))
	if s.Misses != distinct || s.Hits != points-distinct {
		t.Errorf("stats = %+v, want %d misses and %d hits", s, distinct, points-distinct)
	}
	if s.PrefixCyclesSaved == 0 {
		t.Errorf("no cycles accounted as saved despite %d hits", s.Hits)
	}
}

// TestCorruptCheckpointEvictsAndColdStarts pins the poisoned-cache path: a
// checkpoint that fails its store envelope, passes it but does not decode
// as metrics, or decodes with the wrong core count, is evicted and the
// point re-simulated, so corruption can cost time but never correctness.
func TestCorruptCheckpointEvictsAndColdStarts(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Workload: "spmv", Cores: 4, Scale: 0.05, System: SystemBaseline}
	pristine, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte("garbage-not-a-metrics-blob")
	wrongCores := *pristine.Metrics
	wrongCores.PerCoreCycles = wrongCores.PerCoreCycles[:cfg.Cores-1]
	wrongBlob, err := wrongCores.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	keyOf := func(file string) string { return strings.TrimSuffix(filepath.Base(file), ckptcache.Ext) }
	for _, tc := range []struct {
		name   string
		poison func(t *testing.T, dir, file string)
		// servedFirst: the store hands the bytes to the metrics decoder,
		// which rejects them, rather than rejecting the file itself.
		servedFirst bool
	}{
		{name: "bad-envelope", poison: func(t *testing.T, dir, file string) {
			if err := os.WriteFile(file, garbage, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "unrestorable-snapshot", poison: func(t *testing.T, dir, file string) {
			ckptcache.Put(keyOf(file), dir, garbage)
		}, servedFirst: true},
		{name: "wrong-core-count", poison: func(t *testing.T, dir, file string) {
			ckptcache.Put(keyOf(file), dir, wrongBlob)
		}, servedFirst: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckptcache.Flush()
			defer ckptcache.Flush()
			dir := t.TempDir()
			pol := CheckpointPolicy{Enabled: true, Dir: dir}

			// Populate the cache, then poison every checkpoint on disk and
			// drop the in-memory copies so the next run must read the
			// poisoned bytes.
			if _, err := runCfg(ctx, cfg, pol); err != nil {
				t.Fatal(err)
			}
			files, err := filepath.Glob(filepath.Join(dir, "*"+ckptcache.Ext))
			if err != nil || len(files) == 0 {
				t.Fatalf("no checkpoint files published (err=%v)", err)
			}
			for _, f := range files {
				tc.poison(t, dir, f)
			}
			ckptcache.Flush()

			res, err := runCfg(ctx, cfg, pol)
			if err != nil {
				t.Fatalf("corrupt checkpoint failed the run instead of cold-starting: %v", err)
			}
			if !reflect.DeepEqual(res, pristine) {
				t.Errorf("cold-start after corruption diverged: %+v vs %+v", res, pristine)
			}
			s := ckptcache.GetStats()
			if s.Corrupt == 0 {
				t.Error("corrupt blob was not evicted (Stats.Corrupt == 0)")
			}
			if served := s.DiskHits > 0; served != tc.servedFirst {
				t.Errorf("poisoned blob served to the decoder = %v, want %v: %+v", served, tc.servedFirst, s)
			}
			if _, err := os.Stat(files[0]); err == nil {
				// The cold start re-published a fresh checkpoint under the
				// same key; it must now decode cleanly.
				ckptcache.Flush()
				ResetCheckpointStats()
				if _, err := runCfg(ctx, cfg, pol); err != nil {
					t.Errorf("re-published checkpoint unusable: %v", err)
				}
				if cs := GetCheckpointStats(); cs.Hits != 1 || ckptcache.GetStats().Corrupt != 0 {
					t.Errorf("re-published checkpoint not served: %+v, %+v", cs, ckptcache.GetStats())
				}
			}
		})
	}
}

// TestExpSeedChangesResults checks the Seed plumbing actually reaches input
// generation (and that the default remains the paper's seed-0 inputs).
func TestExpSeedChangesResults(t *testing.T) {
	base := ExpOptions{Cores: 4, Scale: 0.05, Workloads: []string{"spmv"}}
	t0, err := Experiments.Run("fig1", base)
	if err != nil {
		t.Fatal(err)
	}
	seeded := base
	seeded.Seed = 12345
	t1, err := Experiments.Run("fig1", seeded)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for ri := range t0.Rows {
		for ci := range t0.Rows[ri].Values {
			if t0.Rows[ri].Values[ci] != t1.Rows[ri].Values[ci] {
				same = false
			}
		}
	}
	if same {
		t.Error("Seed had no effect on experiment inputs")
	}
}

// TestExpSeedReproducesExperimentPoint pins the cross-tool contract: a
// single cell of a seeded experiment is reproducible through Run (and thus
// impsim -exp-seed) by deriving Config.Seed with ExpSeed.
func TestExpSeedReproducesExperimentPoint(t *testing.T) {
	tbl, err := Experiments.Run("fig1", ExpOptions{
		Cores: 4, Scale: 0.05, Workloads: []string{"spmv"},
		RunOptions: RunOptions{Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Workload: "spmv", Cores: 4, Scale: 0.05, System: SystemBaseline,
		Seed: ExpSeed(7, "spmv"),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := []float64{res.MissFracIndirect, res.MissFracStream, res.MissFracOther}
	for i, v := range tbl.Rows[0].Values {
		if got[i] != v {
			t.Fatalf("direct run with ExpSeed diverges from experiment cell: %v vs %v", got, tbl.Rows[0].Values)
		}
	}
}

func TestExpProgressEvents(t *testing.T) {
	var mu sync.Mutex
	var events []ProgressEvent
	_, err := Experiments.Run("fig12", ExpOptions{
		Cores: 4, Scale: 0.05, Workloads: testWorkloads,
		RunOptions: RunOptions{
			Parallelism: 4,
			OnProgress: func(e ProgressEvent) {
				mu.Lock() // callback is serialized, but the test asserts from outside
				events = append(events, e)
				mu.Unlock()
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	// fig12: 2 workloads x 2 systems.
	if len(events) != 4 {
		t.Fatalf("got %d progress events, want 4", len(events))
	}
	for _, e := range events {
		if e.Experiment != "fig12" || e.Total != 4 || e.Cycles <= 0 || e.Err != nil {
			t.Errorf("bad event: %+v", e)
		}
	}
}

func TestSensitivityDefaultMustBeInValues(t *testing.T) {
	run := expSensitivity("figX", "bad", []int{8, 16}, 32,
		func(c *Config, v int) { c.PTEntries = v })
	_, err := run(ExpOptions{Cores: 4, Scale: 0.05, Workloads: []string{"spmv"}})
	if err == nil {
		t.Fatal("default outside the sweep values must error, not panic later")
	}
}

func TestExpContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Experiments.Run("fig9", ExpOptions{
		Cores: 4, Scale: 0.05, Workloads: testWorkloads,
		RunOptions: RunOptions{Context: ctx},
	})
	if err == nil {
		t.Fatal("cancelled context did not abort the experiment")
	}
}

func TestRunSweepMatchesRun(t *testing.T) {
	cfgs := []Config{
		{Workload: "spmv", Cores: 4, Scale: 0.05, System: SystemIMP},
		{Workload: "pagerank", Cores: 4, Scale: 0.05, System: SystemBaseline},
		{Workload: "dense", Cores: 4, Scale: 0.05, System: SystemIdeal},
	}
	swept, err := RunSweep(context.Background(), cfgs, SweepOptions{
		RunOptions: RunOptions{Parallelism: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		direct, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if swept[i].Cycles != direct.Cycles || swept[i].Instructions != direct.Instructions {
			t.Errorf("cfg %d: sweep result %d cycles, direct %d", i, swept[i].Cycles, direct.Cycles)
		}
	}
}

func TestRunSweepError(t *testing.T) {
	cfgs := []Config{
		{Workload: "spmv", Cores: 4, Scale: 0.05},
		{Workload: "nope", Cores: 4, Scale: 0.05},
	}
	if _, err := RunSweep(context.Background(), cfgs, SweepOptions{}); err == nil {
		t.Fatal("sweep swallowed the unknown-workload error")
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	tbl := &Table{ID: "x", Title: "t", Columns: []string{"a", "b"}, Notes: "n"}
	tbl.AddRow("w1", 1.5, 2.5)
	data, err := tbl.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != tbl.ID || back.Rows[0].Values[1] != 2.5 || back.Notes != "n" {
		t.Errorf("round trip lost data: %+v", back)
	}
}

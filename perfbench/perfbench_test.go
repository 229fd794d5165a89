package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"

	"github.com/impsim/imp/internal/cluster"
	"github.com/impsim/imp/internal/service"
)

// tinyParams shrinks every workload's fixed work to a smoke-test size.
func tinyParams(t *testing.T) params {
	p := defaultParams(7, t.TempDir())
	p.setupReps = 1
	p.cores, p.scale = 4, 0.02
	p.fleetScale = 0.02
	p.poolTraceSeeds, p.jobsPerPool, p.routerSamples = 1, 2, 4
	return p
}

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestEveryMetricEmitted runs every workload at a tiny scale, untraced and
// traced, and checks that the result line carries exactly the metrics
// BENCHMARK.json names, each with its unit, that every output checked out,
// and that the span self times add up to the top-level span.
func TestEveryMetricEmitted(t *testing.T) {
	bf := loadBenchFile(t)
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(name, tinyParams(t), 0, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", name, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
			if traced {
				var share float64
				for _, layer := range spanLayers {
					share += rep.Metrics["span."+layer+".share"].Value
				}
				if math.Abs(share-1) > 1e-6 {
					t.Errorf("%s: span self-time shares sum to %v, want 1", name, share)
				}
			}
		}
	}
}

// TestCorruptedResultCountsAsFailed plants wrong result bytes in every
// backend's store for one spec; each job fetching them must count as
// failed, and the clean jobs as passed.
func TestCorruptedResultCountsAsFailed(t *testing.T) {
	w := &fleetWorkload{p: tinyParams(t)}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.Start(w.p.fleetBackends, cluster.Options{Service: service.Config{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	victim := w.order[0]
	spec := w.pool[victim].spec
	key, err := service.ResultKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(w.pool[victim].want, []byte(`"Cycles": `), []byte(`"Cycles": 1`), 1)
	if bytes.Equal(bad, w.pool[victim].want) {
		t.Fatal("corruption left the result unchanged")
	}
	for i := range cl.Backends {
		if err := cl.BackendClient(i).PutStoredResult(context.Background(), key, bad); err != nil {
			t.Fatal(err)
		}
	}

	ps, err := w.runJobs(cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	victims := 0
	for _, idx := range w.order {
		if idx == victim {
			victims++
		}
	}
	if ps.attempted != len(w.order) || ps.failed != victims {
		t.Fatalf("attempted %d failed %d, want %d attempted and the %d jobs of the corrupted spec failed",
			ps.attempted, ps.failed, len(w.order), victims)
	}
}

package imp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/impsim/imp/internal/ckptcache"
)

// ckptTestConfigs returns a small sweep and its number of distinct
// checkpoint keys: a PTEntries override is inert on Baseline (same key) but
// shapes an IMP run (new key).
func ckptTestConfigs() (cfgs []Config, distinct int) {
	for _, w := range testWorkloads {
		cfgs = append(cfgs,
			Config{Workload: w, Cores: 4, Scale: 0.05, System: SystemBaseline},
			Config{Workload: w, Cores: 4, Scale: 0.05, System: SystemBaseline, PTEntries: 8},
			Config{Workload: w, Cores: 4, Scale: 0.05, System: SystemIMP},
			Config{Workload: w, Cores: 4, Scale: 0.05, System: SystemIMP, PTEntries: 8},
		)
	}
	return cfgs, 3 * len(testWorkloads)
}

// freshCheckpoints empties the in-process checkpoint cache and counters and
// returns a policy over a new, empty disk directory.
func freshCheckpoints(t *testing.T) CheckpointPolicy {
	t.Helper()
	ckptcache.Flush()
	t.Cleanup(ckptcache.Flush)
	ResetCheckpointStats()
	return CheckpointPolicy{Enabled: true, Dir: t.TempDir()}
}

// requireSameResults fails unless got matches want byte for byte in JSON and
// field for field in the full metrics.
func requireSameResults(t *testing.T, got, want []*Result) {
	t.Helper()
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gb) != string(wb) {
		t.Fatalf("checkpointed results differ from checkpoints-off:\n got %s\nwant %s", gb, wb)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Metrics, want[i].Metrics) {
			t.Fatalf("result %d: metrics differ from checkpoints-off", i)
		}
	}
}

// TestCheckpointCountersOnePerPoint: every checkpointed point counts exactly
// one hit or one miss — a cold sweep misses once per distinct key, and a
// warm rerun hits every point and saves all their cycles.
func TestCheckpointCountersOnePerPoint(t *testing.T) {
	cfgs, distinct := ckptTestConfigs()
	pol := freshCheckpoints(t)
	opt := SweepOptions{RunOptions: RunOptions{Parallelism: 4, Checkpoints: pol}}
	if _, err := RunSweep(context.Background(), cfgs, opt); err != nil {
		t.Fatal(err)
	}
	if s := GetCheckpointStats(); s.Misses != uint64(distinct) || s.Hits != uint64(len(cfgs)-distinct) {
		t.Errorf("cold sweep: %+v, want %d misses and %d hits", s, distinct, len(cfgs)-distinct)
	}

	// Warm from disk, as a fresh process would be.
	ckptcache.Flush()
	ResetCheckpointStats()
	res, err := RunSweep(context.Background(), cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	var cycles uint64
	for _, r := range res {
		cycles += uint64(r.Cycles)
	}
	s := GetCheckpointStats()
	if s.Hits != uint64(len(cfgs)) || s.Misses != 0 || s.PrefixCyclesSaved != cycles {
		t.Errorf("warm sweep: %+v, want %d hits, 0 misses, %d cycles saved", s, len(cfgs), cycles)
	}
}

// TestCheckpointDedupeTripled: three copies of every config in one sweep
// simulate each distinct key once, and the copies that waited return the
// same bytes as a checkpoints-off sweep.
func TestCheckpointDedupeTripled(t *testing.T) {
	cfgs, distinct := ckptTestConfigs()
	tripled := append(append(append([]Config(nil), cfgs...), cfgs...), cfgs...)
	want, err := RunSweep(context.Background(), tripled, SweepOptions{RunOptions: RunOptions{Parallelism: 8}})
	if err != nil {
		t.Fatal(err)
	}
	pol := freshCheckpoints(t)
	got, err := RunSweep(context.Background(), tripled,
		SweepOptions{RunOptions: RunOptions{Parallelism: 8, Checkpoints: pol}})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, got, want)
	if s := GetCheckpointStats(); s.Misses != uint64(distinct) || s.Hits != uint64(len(tripled)-distinct) {
		t.Errorf("stats = %+v, want %d misses and %d hits", s, distinct, len(tripled)-distinct)
	}
}

// TestCheckpointDedupeConcurrentSweeps: two sweeps running at once with
// overlapping keys share runs process-wide, not just within a sweep.
func TestCheckpointDedupeConcurrentSweeps(t *testing.T) {
	cfgs, distinct := ckptTestConfigs()
	want, err := RunSweep(context.Background(), cfgs, SweepOptions{RunOptions: RunOptions{Parallelism: 4}})
	if err != nil {
		t.Fatal(err)
	}
	pol := freshCheckpoints(t)
	// The second sweep runs the same configs in reverse order, so the two
	// reach each key from opposite ends.
	rev := make([]Config, len(cfgs))
	for i, c := range cfgs {
		rev[len(cfgs)-1-i] = c
	}
	var got [2][]*Result
	var errs [2]error
	var wg sync.WaitGroup
	for i, sweep := range [][]Config{cfgs, rev} {
		wg.Add(1)
		go func(i int, sweep []Config) {
			defer wg.Done()
			got[i], errs[i] = RunSweep(context.Background(), sweep,
				SweepOptions{RunOptions: RunOptions{Parallelism: 4, Checkpoints: pol}})
		}(i, sweep)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	requireSameResults(t, got[0], want)
	back := make([]*Result, len(rev))
	for i, r := range got[1] {
		back[len(rev)-1-i] = r
	}
	requireSameResults(t, back, want)
	if s := GetCheckpointStats(); s.Misses != uint64(distinct) || s.Hits != uint64(2*len(cfgs)-distinct) {
		t.Errorf("stats = %+v, want %d misses and %d hits", s, distinct, 2*len(cfgs)-distinct)
	}
}

// runCopies calls runCfg on cfg from n goroutines at once and returns their
// errors, converting panics to errors the way the sweep harness does. It
// fails the test if any call has not returned within a minute.
func runCopies(t *testing.T, n int, cfg Config, pol CheckpointPolicy) []error {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("panic: %v", r)
				}
			}()
			_, errs[i] = runCfg(context.Background(), cfg, pol)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("identical runs still waiting on a failed leader after a minute")
	}
	return errs
}

// TestCheckpointDedupeFailingLeader: when the run every copy waits on fails
// or panics, each copy returns an error and none hangs.
func TestCheckpointDedupeFailingLeader(t *testing.T) {
	t.Run("unknown-workload", func(t *testing.T) {
		pol := freshCheckpoints(t)
		bad := Config{Workload: "no-such-workload", Cores: 4, Scale: 0.05, System: SystemIMP}
		_, err := RunSweep(context.Background(), []Config{bad, bad, bad},
			SweepOptions{RunOptions: RunOptions{Parallelism: 8, Checkpoints: pol}})
		if err == nil || !strings.Contains(err.Error(), "no-such-workload") {
			t.Fatalf("sweep error = %v, want the unknown-workload error", err)
		}
		for i, err := range runCopies(t, 3, bad, pol) {
			if err == nil || !strings.Contains(err.Error(), "no-such-workload") {
				t.Errorf("copy %d: error = %v, want the unknown-workload error", i, err)
			}
		}
	})
	t.Run("panicking-leader", func(t *testing.T) {
		pol := freshCheckpoints(t)
		orig := simulate
		t.Cleanup(func() { simulate = orig })
		simulate = func(Config) (*Result, error) {
			// Give the other copies time to find this run in flight.
			time.Sleep(20 * time.Millisecond)
			panic("simulator exploded")
		}
		cfg := Config{Workload: "spmv", Cores: 4, Scale: 0.05, System: SystemIMP}
		for i, err := range runCopies(t, 3, cfg, pol) {
			if err == nil {
				t.Errorf("copy %d succeeded despite the panic", i)
			} else if !errors.Is(err, errAbandoned) && !strings.Contains(err.Error(), "simulator exploded") {
				t.Errorf("copy %d: error = %v", i, err)
			}
		}
		inflight.Lock()
		left := len(inflight.m)
		inflight.Unlock()
		if left != 0 {
			t.Errorf("%d runs still registered in flight after the panic", left)
		}
	})
}

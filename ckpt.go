package imp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/impsim/imp/internal/blobstore"
	"github.com/impsim/imp/internal/ckptcache"
	"github.com/impsim/imp/internal/sim"
	"github.com/impsim/imp/internal/trace"
	"github.com/impsim/imp/internal/workload"
)

// Checkpointed sweep execution. A sweep point's simulation is a pure
// function of its trace and its effective sim configuration, and every
// figure and table reads only the finished run's counters, so a checkpoint
// is the finished run's sim.Metrics, memoized under a content address. A
// hit decodes the blob without touching the trace; a miss simulates once
// and publishes. Identity is content-addressed like results
// (internal/jobkey) and traces (internal/progcache): the key covers the
// workload build request, the effective system, and the trace, generator
// and snapshot format versions (the last also versions the metrics blob
// layout), so a version bump invalidates stale checkpoints implicitly.
// Late-binding IMP prefetch parameters are zeroed out of the key when the
// configured system never instantiates the IMP prefetcher — for such
// systems they are inert, so e.g. a Baseline cell keyed by a sensitivity
// sweep still shares the Baseline run. For IMP systems they shape the
// simulation from the first record and stay in the key.

// CheckpointStats counts checkpointed-execution outcomes process-wide,
// across every sweep (the same scope as the trace-cache counters).
type CheckpointStats struct {
	// Every checkpointed sweep point counts exactly one hit or one miss.
	// Hits counts points served without simulating: from the checkpoint
	// cache, or by waiting on a concurrent identical point's run.
	Hits uint64
	// Misses counts points simulated cold (and then published).
	Misses uint64
	// PrefixCyclesSaved sums the simulated Cycles of the hit points — the
	// simulation the checkpoints saved.
	PrefixCyclesSaved uint64
}

var ckptHits, ckptMisses, ckptCyclesSaved atomic.Uint64

// GetCheckpointStats snapshots the process-wide checkpoint counters.
func GetCheckpointStats() CheckpointStats {
	return CheckpointStats{
		Hits:              ckptHits.Load(),
		Misses:            ckptMisses.Load(),
		PrefixCyclesSaved: ckptCyclesSaved.Load(),
	}
}

// ResetCheckpointStats zeroes the counters. Intended for tests and
// benchmarks.
func ResetCheckpointStats() {
	ckptHits.Store(0)
	ckptMisses.Store(0)
	ckptCyclesSaved.Store(0)
}

// ckptSpec is the canonical JSON shape hashed into a checkpoint key.
type ckptSpec struct {
	Workload string           `json:"workload"`
	Options  workload.Options `json:"options"`
	Sim      sim.Config       `json:"sim"`
}

// checkpointKey derives the content address of cfg's finished run. cfg
// must already have its defaults applied (the sweep entry points do this
// once per point).
func checkpointKey(cfg Config) (string, error) {
	scfg, err := cfg.simConfig()
	if err != nil {
		return "", err
	}
	if scfg.Prefetcher != sim.PrefetchIMP {
		// Late-binding IMP knobs are inert without the IMP prefetcher;
		// excluding them lets configs differing only in such knobs share
		// one run.
		scfg.IMP = sim.DefaultConfig(cfg.Cores).IMP
	}
	spec := ckptSpec{
		Workload: cfg.Workload,
		Options:  cfg.workloadOptions().WithDefaults(),
		Sim:      scfg,
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("imp: keying checkpoint spec: %w", err)
	}
	prefix := fmt.Sprintf("impmetrics|fmt%d|gen%d|snap%d|",
		trace.FormatVersion, workload.GenVersion, sim.SnapshotFormatVersion)
	return blobstore.Key(prefix, b), nil
}

// errAbandoned is what waiters see when the run they waited on panicked
// before recording an outcome.
var errAbandoned = errors.New("imp: concurrent identical simulation panicked")

// flight is one in-progress checkpointed run; callers with the same key
// wait on done and copy res's metrics instead of simulating again.
type flight struct {
	done chan struct{}
	res  *Result
	err  error
}

// inflight dedupes concurrent identical points process-wide, across sweeps
// and service jobs alike.
var inflight = struct {
	sync.Mutex
	m map[string]*flight
}{m: make(map[string]*flight)}

// runCfg is the leaf execution every sweep point goes through: the plain
// Run path with checkpointing off, the metrics memo with it on. With it
// on, concurrent calls with the same key run one simulation: the first
// caller runs it while the others wait for its metrics.
func runCfg(ctx context.Context, cfg Config, pol CheckpointPolicy) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !pol.Enabled {
		return Run(cfg)
	}
	key, err := checkpointKey(cfg)
	if err != nil {
		return nil, err
	}
	inflight.Lock()
	f, wait := inflight.m[key]
	if !wait {
		f = &flight{done: make(chan struct{}), err: errAbandoned}
		inflight.m[key] = f
	}
	inflight.Unlock()
	if wait {
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if f.err != nil {
			return nil, f.err
		}
		m := *f.res.Metrics
		m.PerCoreCycles = slices.Clone(m.PerCoreCycles)
		return hit(&m), nil
	}
	defer func() {
		inflight.Lock()
		delete(inflight.m, key)
		inflight.Unlock()
		close(f.done)
	}()
	f.res, f.err = lookupOrSimulate(cfg, key, pol)
	return f.res, f.err
}

// lookupOrSimulate serves cfg's metrics from the checkpoint cache, or
// simulates cfg and publishes them (best-effort: an encoding failure
// degrades to an uncached run).
func lookupOrSimulate(cfg Config, key string, pol CheckpointPolicy) (*Result, error) {
	if data, ok := ckptcache.Get(key, pol.Dir); ok {
		var m sim.Metrics
		if m.UnmarshalBinary(data) == nil && len(m.PerCoreCycles) == cfg.Cores {
			return hit(&m), nil
		}
		// The blob does not decode, or its shape does not match the key's
		// config: evict it and fall through to a cold start — never a
		// wrong result, at worst a re-simulation.
		ckptcache.Evict(key, pol.Dir)
	}
	res, err := simulate(cfg)
	if err != nil {
		return nil, err
	}
	ckptMisses.Add(1)
	if blob, err := res.Metrics.MarshalBinary(); err == nil {
		ckptcache.Put(key, pol.Dir, blob)
	}
	return res, nil
}

// simulate is the cold path of runCfg; tests replace it to inject
// failures.
var simulate = Run

// hit counts a point served without simulating and wraps its metrics.
func hit(m *sim.Metrics) *Result {
	ckptHits.Add(1)
	ckptCyclesSaved.Add(uint64(m.Cycles))
	return newResult(m)
}

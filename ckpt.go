package imp

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync/atomic"

	"github.com/impsim/imp/internal/blobstore"
	"github.com/impsim/imp/internal/ckptcache"
	"github.com/impsim/imp/internal/sim"
	"github.com/impsim/imp/internal/trace"
	"github.com/impsim/imp/internal/workload"
)

// Checkpointed sweep execution. A sweep point's simulation is a pure
// function of its trace and its effective sim configuration, so a finished
// replay can be snapshotted (internal/sim's versioned, CRC'd envelope) and
// any later point with the same identity forked from the restored state
// instead of re-simulating. Identity is content-addressed like results
// (internal/jobkey) and traces (internal/progcache): the key covers the
// workload build request, the effective system, and the trace, generator
// and snapshot format versions, so a version bump invalidates stale
// checkpoints implicitly. Late-binding IMP prefetch parameters are zeroed
// out of the key when the configured system never instantiates the IMP
// prefetcher — for such systems they are inert, so e.g. a Baseline cell
// keyed by a sensitivity sweep still shares the Baseline replay. For IMP
// systems they shape the simulation from the first record and stay in the
// key.

// CheckpointStats counts checkpointed-execution outcomes process-wide,
// across every sweep (the same scope as the trace-cache counters).
type CheckpointStats struct {
	// Hits counts sweep points forked from a restored checkpoint.
	Hits uint64
	// Misses counts shared replays simulated cold (and then published).
	Misses uint64
	// PrefixCyclesSaved totals the simulated cycles restored from
	// checkpoints instead of re-simulated — the work forking saved.
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

// checkpointKey derives the content address of cfg's finished replay. cfg
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
		// one replay.
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
	prefix := fmt.Sprintf("impckpt|fmt%d|gen%d|snap%d|",
		trace.FormatVersion, workload.GenVersion, sim.SnapshotFormatVersion)
	return blobstore.Key(prefix, b), nil
}

// prefixFor resolves the prefix-sharing key and warm-up closure the harness
// runs once per group of identical points. Zero values (no grouping) when
// checkpointing is off or the config cannot be keyed — the leaf then runs
// cold and surfaces any real configuration error itself.
func prefixFor(cfg Config, pol CheckpointPolicy) (string, func(ctx context.Context) error) {
	if !pol.Enabled {
		return "", nil
	}
	key, err := checkpointKey(cfg)
	if err != nil {
		return "", nil
	}
	return key, func(ctx context.Context) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return ensureCheckpoint(cfg, key, pol)
	}
}

// ensureCheckpoint makes cfg's replay available under key: a cache hit is
// free; a miss simulates the full replay once and publishes its snapshot,
// so every grouped leaf (and later sweeps) forks instead of re-simulating.
func ensureCheckpoint(cfg Config, key string, pol CheckpointPolicy) error {
	if _, ok := ckptcache.Get(key, pol.Dir); ok {
		return nil
	}
	_, err := simulateAndPublish(cfg, key, pol)
	return err
}

// runCfg is the leaf execution every sweep point goes through: the plain
// Run path with checkpointing off, the fork-or-publish path with it on.
func runCfg(cfg Config, pol CheckpointPolicy) (*Result, error) {
	if !pol.Enabled {
		return Run(cfg)
	}
	key, err := checkpointKey(cfg)
	if err != nil {
		return nil, err
	}
	if data, ok := ckptcache.Get(key, pol.Dir); ok {
		if res, err := forkFromCheckpoint(cfg, data); err == nil {
			return res, nil
		}
		// The blob would not restore (corrupt file, geometry drift):
		// evict it and fall through to a cold start — never a wrong
		// result, at worst a re-simulation.
		ckptcache.Evict(key, pol.Dir)
	}
	m, err := simulateAndPublish(cfg, key, pol)
	if err != nil {
		return nil, err
	}
	return newResult(m), nil
}

// forkFromCheckpoint restores cfg's replay from a snapshot and finishes it
// (metric finalization only — the replay itself was already simulated).
func forkFromCheckpoint(cfg Config, data []byte) (*Result, error) {
	prog, err := cfg.resolveProgram()
	if err != nil {
		return nil, err
	}
	scfg, err := cfg.simConfig()
	if err != nil {
		return nil, err
	}
	sys, err := sim.Restore(prog.Source(), scfg, data)
	if err != nil {
		return nil, err
	}
	saved := sys.Cycles()
	m, err := sys.Finish()
	if err != nil {
		return nil, err
	}
	ckptHits.Add(1)
	ckptCyclesSaved.Add(uint64(saved))
	return newResult(m), nil
}

// simulateAndPublish runs cfg's full replay cold, publishes its end-state
// snapshot under key (best-effort: a snapshot failure degrades to an
// uncached run), and returns the finished metrics.
func simulateAndPublish(cfg Config, key string, pol CheckpointPolicy) (*sim.Metrics, error) {
	prog, err := cfg.resolveProgram()
	if err != nil {
		return nil, err
	}
	scfg, err := cfg.simConfig()
	if err != nil {
		return nil, err
	}
	sys, err := sim.New(prog.Source(), scfg)
	if err != nil {
		return nil, err
	}
	if err := sys.RunUntil(math.MaxInt); err != nil {
		return nil, err
	}
	ckptMisses.Add(1)
	if data, err := sys.Snapshot(); err == nil {
		ckptcache.Put(key, pol.Dir, data)
	}
	return sys.Finish()
}

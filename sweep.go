package imp

import (
	"context"
	"errors"
	"fmt"

	"github.com/impsim/imp/internal/harness"
)

// SweepOptions configure RunSweep. All knobs live in the embedded
// RunOptions, shared with ExpOptions.
type SweepOptions struct {
	RunOptions
}

// Gate bounds concurrent simulations across independent sweeps. Obtain one
// with NewGate and share it via SweepOptions.Gate / ExpOptions.Gate.
type Gate interface {
	// Acquire blocks until a slot is free or ctx is done.
	Acquire(ctx context.Context) error
	// Release frees the slot taken by a successful Acquire.
	Release()
}

// NewGate returns a Gate admitting at most n concurrent simulations
// (n < 1 is treated as 1).
func NewGate(n int) Gate { return harness.NewGate(n) }

// RunSweep simulates every config concurrently with bounded parallelism and
// returns one result per config, in config order — the results are identical
// to running each config serially through Run. Traces are built per point
// (configs in a sweep usually differ in workload, cores or scale); use
// Experiments for the paper's trace-sharing sweeps. With opt.Checkpoints
// enabled, configs whose effective simulation is identical share one run
// through the checkpoint cache instead of cold-starting each.
func RunSweep(ctx context.Context, cfgs []Config, opt SweepOptions) ([]*Result, error) {
	resolved := make([]Config, len(cfgs))
	for i, cfg := range cfgs {
		cfg.applyDefaults()
		if cfg.Seed == 0 && opt.Seed != 0 {
			cfg.Seed = ExpSeed(opt.Seed, cfg.Workload)
		}
		resolved[i] = cfg
	}
	return sweepSim(opt.ctx(ctx), opt.RunOptions, "", resolved, nil)
}

// ExpSeed returns the trace seed an experiment derives for workload from a
// base seed (ExpOptions.Seed). Pass it as Config.Seed to reproduce a single
// experiment point through Run or impsim — a raw base seed would build
// different inputs. A zero base returns 0 (the paper's default inputs).
func ExpSeed(base int64, workload string) int64 {
	return harness.SeedFor(base, workload)
}

// sweepSim is the one adapter between simulation sweeps and the harness:
// it turns fully-resolved configs into labeled harness points running
// runCfg, fans them out with fail-fast bounded parallelism, translates
// harness events into ProgressEvents (tagged with experiment), and returns
// results in point order.
func sweepSim(ctx context.Context, opt RunOptions, experiment string, cfgs []Config, progress func(string)) ([]*Result, error) {
	hpts := make([]harness.Point[*Result], len(cfgs))
	for i, cfg := range cfgs {
		hpts[i] = harness.Point[*Result]{
			Label: fmt.Sprintf("%s/%s", cfg.Workload, cfg.System),
			Run: func(ctx context.Context) (*Result, error) {
				return runCfg(ctx, cfg, opt.Checkpoints)
			},
		}
	}
	var onEvent func(harness.Event, *Result)
	if opt.OnProgress != nil || progress != nil {
		onEvent = func(e harness.Event, res *Result) {
			// Points skipped by fail-fast cancellation never simulated
			// anything; reporting each would bury the real failure.
			if errors.Is(e.Err, context.Canceled) || errors.Is(e.Err, context.DeadlineExceeded) {
				return
			}
			c := cfgs[e.Index]
			var cycles int64
			if res != nil {
				cycles = res.Cycles
			}
			if opt.OnProgress != nil {
				opt.OnProgress(ProgressEvent{
					Experiment: experiment, Workload: c.Workload, System: c.System,
					Point: e.Index, Total: e.Total, Done: e.Done,
					Cycles: cycles, Elapsed: e.Elapsed, Err: e.Err,
				})
			}
			if progress != nil && e.Err == nil {
				progress(fmt.Sprintf("%s/%s: %d cycles", c.Workload, c.System, cycles))
			}
		}
	}
	return harness.Sweep(ctx, hpts,
		harness.Options{Workers: opt.Parallelism, FailFast: true, Gate: opt.Gate}, onEvent)
}

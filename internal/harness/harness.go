// Package harness is the parallel sweep engine behind the experiment
// runners. A sweep is an ordered list of independent simulation points; the
// harness executes them across a bounded worker pool and collects results
// back in point order, so sweep output is byte-identical regardless of the
// worker count.
//
// Guarantees:
//
//   - Results are returned indexed by point, never by completion order.
//   - Per-point errors are captured, not conflated: the sweep's error is the
//     first failure in *point* order, and every point's individual error
//     remains inspectable. Without FailFast that choice is deterministic;
//     with it, which points got to fail before cancellation depends on
//     scheduling (see Options.FailFast).
//   - Cancellation is cooperative via context.Context: once the context is
//     done (or, with FailFast, once any point fails) unstarted points are
//     skipped with the cancellation error.
//   - Seeds derived with SeedFor depend only on a base seed and the point's
//     identity, never on scheduling, so randomized inputs stay reproducible
//     at any parallelism.
package harness

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Options configure a sweep.
type Options struct {
	// Workers bounds concurrent points. <=0 means runtime.GOMAXPROCS(0);
	// 1 degenerates to a serial loop.
	Workers int
	// FailFast cancels the remaining points after the first failure. The
	// reported first-by-point-order error may then differ across worker
	// counts (a later point can fail before an earlier one is reached), so
	// leave it off when deterministic error identity matters more than
	// wasted work.
	FailFast bool
	// Gate, when non-nil, is acquired before each point runs and released
	// after. Sharing one gate across several concurrent sweeps bounds their
	// combined in-flight points, on top of each sweep's own Workers bound —
	// the seam a multi-job service uses to cap total simulation concurrency.
	// Gating changes only scheduling, never results: collection stays in
	// point order.
	Gate Gate
}

// Gate bounds in-flight work across independent sweeps. Acquire blocks until
// a slot is free or ctx is done; every successful Acquire must be paired
// with exactly one Release.
type Gate interface {
	Acquire(ctx context.Context) error
	Release()
}

// NewGate returns a Gate admitting at most n concurrent holders (n < 1 is
// treated as 1).
func NewGate(n int) Gate {
	if n < 1 {
		n = 1
	}
	return make(chanGate, n)
}

type chanGate chan struct{}

func (g chanGate) Acquire(ctx context.Context) error {
	select {
	case g <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g chanGate) Release() { <-g }

// Event reports one finished (or skipped) point to the progress callback.
// Events are delivered serially — the callback never runs concurrently with
// itself — but in completion order, which depends on scheduling.
type Event struct {
	// Index is the point's position in the sweep; Total the sweep size.
	Index, Total int
	// Done counts finished points including this one.
	Done int
	// Label is the point's human-readable identity.
	Label string
	// Err is the point's failure, nil on success.
	Err error
	// Elapsed is the point's wall-clock execution time.
	Elapsed time.Duration
}

// Point is one unit of work: a labeled closure producing an R.
type Point[R any] struct {
	// Label identifies the point in events and error messages.
	Label string
	// Run executes the point. It must respect ctx and must not touch state
	// shared with other points unless that state is safe for concurrent use.
	Run func(ctx context.Context) (R, error)
}

// Sweep executes points with opt.Workers-bounded parallelism and returns one
// result per point, in point order. Failed or skipped points hold R's zero
// value; the returned error is the first per-point error in point order,
// wrapped with its label (nil if every point succeeded). Cancellation errors
// rank below real failures: with FailFast, the point that triggered the
// cancellation is reported, not an earlier-indexed point that merely saw the
// cancelled context. onEvent, when non-nil, receives one Event per point as
// it completes, along with the point's result (zero R on failure).
func Sweep[R any](ctx context.Context, points []Point[R], opt Options, onEvent func(Event, R)) ([]R, error) {
	results, errs := SweepAll(ctx, points, opt, onEvent)
	first := -1
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return results, fmt.Errorf("harness: point %d (%s): %w", i, points[i].Label, err)
		}
		if first == -1 {
			first = i
		}
	}
	if first >= 0 {
		return results, fmt.Errorf("harness: point %d (%s): %w", first, points[first].Label, errs[first])
	}
	return results, nil
}

// SweepAll is Sweep with full per-point error capture: errs[i] is point i's
// error (nil on success, the cancellation cause for skipped points).
func SweepAll[R any](ctx context.Context, points []Point[R], opt Options, onEvent func(Event, R)) ([]R, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(points)
	results := make([]R, n)
	errs := make([]error, n)
	if n == 0 {
		return results, errs
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next    atomic.Int64 // next point index to claim
		done    int          // finished points, for Event.Done; guarded by eventMu
		eventMu sync.Mutex   // serializes onEvent and keeps Done monotonic
		wg      sync.WaitGroup
	)
	emit := func(i int, res R, err error, elapsed time.Duration) {
		if onEvent == nil {
			return
		}
		eventMu.Lock()
		defer eventMu.Unlock()
		done++
		onEvent(Event{
			Index: i, Total: n, Done: done,
			Label: points[i].Label, Err: err, Elapsed: elapsed,
		}, res)
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					var zero R
					emit(i, zero, err, 0)
					continue
				}
				if opt.Gate != nil {
					if err := opt.Gate.Acquire(ctx); err != nil {
						errs[i] = err
						var zero R
						emit(i, zero, err, 0)
						continue
					}
				}
				//imp:wallclock progress-event timing only; Elapsed never feeds results or keys
				start := time.Now()
				res, err := runPoint(ctx, points[i])
				//imp:wallclock progress-event timing only; Elapsed never feeds results or keys
				elapsed := time.Since(start)
				if opt.Gate != nil {
					opt.Gate.Release()
				}
				results[i], errs[i] = res, err
				if err != nil && opt.FailFast {
					cancel()
				}
				emit(i, res, err, elapsed)
			}
		}()
	}
	wg.Wait()
	return results, errs
}

// runPoint executes one point, converting a panic into an error so a single
// bad configuration cannot take down the whole sweep.
func runPoint[R any](ctx context.Context, p Point[R]) (res R, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return p.Run(ctx)
}

// SeedFor derives a per-point seed from a base seed and the point's stable
// identity key. The derivation is pure (FNV-1a over the key, mixed with the
// base), so a point's seed is identical at any worker count and any
// execution order. A zero base with any key returns 0, preserving "default
// inputs" semantics for sweeps that do not opt into seeding.
func SeedFor(base int64, key string) int64 {
	if base == 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	mixed := uint64(base) ^ h.Sum64()
	// splitmix64 finalizer: spreads low-entropy bases over the full range.
	mixed ^= mixed >> 30
	mixed *= 0xbf58476d1ce4e5b9
	mixed ^= mixed >> 27
	mixed *= 0x94d049bb133111eb
	mixed ^= mixed >> 31
	if mixed == 0 {
		mixed = 1 // never collide with the "default inputs" sentinel
	}
	return int64(mixed)
}

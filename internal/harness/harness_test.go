package harness

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func squares(n int) []Point[int] {
	pts := make([]Point[int], n)
	for i := range pts {
		i := i
		pts[i] = Point[int]{
			Label: fmt.Sprintf("p%d", i),
			Run:   func(context.Context) (int, error) { return i * i, nil },
		}
	}
	return pts
}

func TestSweepOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		res, err := Sweep(context.Background(), squares(37), Options{Workers: workers}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range res {
			if v != i*i {
				t.Fatalf("workers=%d: res[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestSweepEmpty(t *testing.T) {
	res, err := Sweep(context.Background(), []Point[int]{}, Options{}, nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("got %v, %v", res, err)
	}
}

func TestSweepBoundedParallelism(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	pts := make([]Point[int], 20)
	for i := range pts {
		pts[i] = Point[int]{Run: func(context.Context) (int, error) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return 0, nil
		}}
	}
	if _, err := Sweep(context.Background(), pts, Options{Workers: workers}, nil); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent points, cap is %d", p, workers)
	}
}

func TestSweepFirstErrorByPointOrder(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	pts := []Point[int]{
		{Label: "ok", Run: func(context.Context) (int, error) { return 1, nil }},
		{Label: "first", Run: func(context.Context) (int, error) {
			time.Sleep(20 * time.Millisecond) // finishes after "second" fails
			return 0, errA
		}},
		{Label: "second", Run: func(context.Context) (int, error) { return 0, errB }},
	}
	_, err := Sweep(context.Background(), pts, Options{Workers: 3}, nil)
	if !errors.Is(err, errA) {
		t.Errorf("want first error in point order (errA), got %v", err)
	}
	// Per-point capture keeps both.
	_, errs := SweepAll(context.Background(), pts, Options{Workers: 3}, nil)
	if !errors.Is(errs[1], errA) || !errors.Is(errs[2], errB) {
		t.Errorf("per-point errors lost: %v", errs)
	}
}

func TestSweepFailFastSkipsRemaining(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	pts := make([]Point[int], 50)
	for i := range pts {
		i := i
		pts[i] = Point[int]{Run: func(context.Context) (int, error) {
			ran.Add(1)
			if i == 0 {
				return 0, boom
			}
			time.Sleep(time.Millisecond)
			return i, nil
		}}
	}
	_, errs := SweepAll(context.Background(), pts, Options{Workers: 1, FailFast: true}, nil)
	if !errors.Is(errs[0], boom) {
		t.Fatalf("errs[0] = %v, want boom", errs[0])
	}
	if n := ran.Load(); n != 1 {
		t.Errorf("%d points ran after fail-fast, want 1", n)
	}
	for i := 1; i < len(errs); i++ {
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("errs[%d] = %v, want context.Canceled", i, errs[i])
		}
	}
}

func TestSweepFailFastReportsRealError(t *testing.T) {
	// With FailFast, the real failure must surface even when earlier-indexed
	// points only saw the resulting cancellation.
	boom := errors.New("boom")
	release := make(chan struct{})
	pts := []Point[int]{
		{Label: "slow-early", Run: func(ctx context.Context) (int, error) {
			<-release // still in flight when the cancellation lands
			return 0, ctx.Err()
		}},
		{Label: "failer", Run: func(context.Context) (int, error) {
			defer close(release)
			return 0, boom
		}},
	}
	_, err := Sweep(context.Background(), pts, Options{Workers: 2, FailFast: true}, nil)
	if !errors.Is(err, boom) {
		t.Errorf("real failure masked by cancellation: %v", err)
	}
}

func TestSweepContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs := SweepAll(ctx, squares(5), Options{Workers: 2}, nil)
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("errs[%d] = %v, want context.Canceled", i, err)
		}
	}
}

func TestSweepPanicCaptured(t *testing.T) {
	pts := []Point[int]{
		{Label: "bad", Run: func(context.Context) (int, error) { panic("kaboom") }},
		{Label: "good", Run: func(context.Context) (int, error) { return 7, nil }},
	}
	res, errs := SweepAll(context.Background(), pts, Options{Workers: 2}, nil)
	if errs[0] == nil || errs[1] != nil || res[1] != 7 {
		t.Errorf("panic not isolated: res=%v errs=%v", res, errs)
	}
}

func TestSweepEvents(t *testing.T) {
	var events []Event
	var values []int
	_, err := Sweep(context.Background(), squares(10), Options{Workers: 4}, func(e Event, v int) {
		// callback is serialized by the harness
		events = append(events, e)
		values = append(values, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 10 {
		t.Fatalf("got %d events, want 10", len(events))
	}
	seen := make(map[int]bool)
	for i, e := range events {
		if e.Total != 10 || e.Done != i+1 {
			t.Errorf("event %d: Total=%d Done=%d", i, e.Total, e.Done)
		}
		if seen[e.Index] {
			t.Errorf("duplicate event for point %d", e.Index)
		}
		seen[e.Index] = true
		if values[i] != e.Index*e.Index {
			t.Errorf("event %d: carried result %d, want %d", i, values[i], e.Index*e.Index)
		}
	}
}

func TestSeedFor(t *testing.T) {
	if got := SeedFor(0, "anything"); got != 0 {
		t.Errorf("zero base must stay zero (default inputs), got %d", got)
	}
	if SeedFor(42, "pagerank") != SeedFor(42, "pagerank") {
		t.Error("SeedFor is not pure")
	}
	if SeedFor(42, "pagerank") == SeedFor(42, "spmv") {
		t.Error("different keys collided")
	}
	if SeedFor(42, "pagerank") == SeedFor(43, "pagerank") {
		t.Error("different bases collided")
	}
	if SeedFor(42, "pagerank") == 0 {
		t.Error("nonzero base produced the zero sentinel")
	}
}

// TestSweepSharedGateBoundsAcrossSweeps runs two concurrent sweeps sharing
// one 2-slot gate and asserts the combined in-flight point count never
// exceeds the gate size, while results stay correct and ordered.
func TestSweepSharedGateBoundsAcrossSweeps(t *testing.T) {
	const gateSize = 2
	gate := NewGate(gateSize)
	var inFlight, maxSeen atomic.Int64
	mkPoints := func(n int) []Point[int] {
		pts := make([]Point[int], n)
		for i := range pts {
			i := i
			pts[i] = Point[int]{Label: fmt.Sprintf("p%d", i), Run: func(context.Context) (int, error) {
				cur := inFlight.Add(1)
				for {
					m := maxSeen.Load()
					if cur <= m || maxSeen.CompareAndSwap(m, cur) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				inFlight.Add(-1)
				return i * i, nil
			}}
		}
		return pts
	}
	done := make(chan error, 2)
	for s := 0; s < 2; s++ {
		go func() {
			res, err := Sweep(context.Background(), mkPoints(8),
				Options{Workers: 4, Gate: gate}, nil)
			if err == nil {
				for i, v := range res {
					if v != i*i {
						err = fmt.Errorf("res[%d] = %d, want %d", i, v, i*i)
						break
					}
				}
			}
			done <- err
		}()
	}
	for s := 0; s < 2; s++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if m := maxSeen.Load(); m > gateSize {
		t.Errorf("observed %d concurrent points across sweeps, gate admits %d", m, gateSize)
	}
}

// TestSweepGateCancelledWhileWaiting: a point blocked on the gate must be
// skipped with the cancellation error, not run, once the context dies.
func TestSweepGateCancelledWhileWaiting(t *testing.T) {
	gate := NewGate(1)
	// Occupy the only slot for the duration of the test.
	if err := gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer gate.Release()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	pts := []Point[int]{{Label: "blocked", Run: func(context.Context) (int, error) {
		ran.Add(1)
		return 1, nil
	}}}
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, errs := SweepAll(ctx, pts, Options{Workers: 1, Gate: gate}, nil)
	if !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("errs[0] = %v, want context.Canceled", errs[0])
	}
	if ran.Load() != 0 {
		t.Error("gated point ran despite cancellation")
	}
}

package engine

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestMapCtxCancellation: once the context is canceled, no further job
// starts, jobs already in flight finish, and the pool returns the context
// error instead of leaking goroutines.
func TestMapCtxCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int64
		gate := make(chan struct{})
		const n = 64
		_, err := MapCtx(ctx, workers, n, func(i int) (int, error) {
			started.Add(1)
			if i == 0 {
				// Cancel from inside the first job, then let it finish:
				// in-flight work completes, queued work does not start.
				cancel()
				close(gate)
			}
			<-gate
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := started.Load(); got >= n {
			t.Errorf("workers=%d: all %d jobs ran despite cancellation", workers, got)
		}
		cancel()
	}
}

// TestMapCtxDoneUpFront: a context canceled before MapCtx is called runs
// nothing at all.
func TestMapCtxDoneUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	for _, workers := range []int{1, 4} {
		_, err := MapCtx(ctx, workers, 16, func(i int) (int, error) {
			ran.Add(1)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	if ran.Load() != 0 {
		t.Errorf("%d jobs ran under a pre-canceled context", ran.Load())
	}
}

// TestMapCtxBackgroundMatchesMap: with an un-canceled context, MapCtx is
// exactly Map.
func TestMapCtxBackgroundMatchesMap(t *testing.T) {
	fn := func(i int) (int, error) { return i * i, nil }
	a, err := Map(4, 10, fn)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MapCtx(context.Background(), 4, 10, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("index %d: Map %d != MapCtx %d", i, a[i], b[i])
		}
	}
}

func TestFreeListReusesAcrossGoroutines(t *testing.T) {
	var l FreeList[[]int]
	a := l.Get()
	if a == nil || *a != nil {
		t.Fatalf("Get on an empty list = %v, want a new zero value", a)
	}
	done := make(chan struct{})
	go func() { l.Put(a); close(done) }()
	<-done
	if b := l.Get(); b != a {
		t.Fatal("Get did not return the scratch another goroutine put back")
	}
	for i := 0; i < runtime.GOMAXPROCS(0)+3; i++ {
		l.Put(new([]int))
	}
	l.mu.Lock()
	got := len(l.free)
	l.mu.Unlock()
	if want := runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("list holds %d entries, want the GOMAXPROCS cap %d", got, want)
	}
}

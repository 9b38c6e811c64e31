package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapMatchesSerial is the pool's property test: for random inputs
// and any worker count, Map's output equals the serial loop's, element
// for element.
func TestMapMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(50)
		items := make([]int, n)
		for i := range items {
			items[i] = rng.Intn(1000)
		}
		fn := func(_ context.Context, v int) (int, error) { return v*v + 1, nil }

		want := make([]int, n)
		for i, v := range items {
			want[i], _ = fn(context.Background(), v)
		}
		for _, workers := range []int{1, 2, 7, 0} {
			got, err := Map(context.Background(), items, workers, fn)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d workers %d: got[%d] = %d, want %d", trial, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestMapEmpty checks a zero-item map returns an empty result, not an
// error or a hang.
func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), nil, 4, func(context.Context, int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("Map(nil) = %v, %v", got, err)
	}
}

// TestMapFirstErrorWins checks a failing item cancels the pool, the
// failure's error is returned, and not every item runs. Items after
// the failing one hold their worker until the pool is cancelled, so
// the outcome does not depend on how the scheduler interleaves the
// failing worker with the others.
func TestMapFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	items := make([]int, 1000)
	for i := range items {
		items[i] = i
	}
	var ran atomic.Int64
	_, err := Map(context.Background(), items, 4, func(ctx context.Context, v int) (int, error) {
		ran.Add(1)
		switch {
		case v == 3:
			return 0, fmt.Errorf("item %d: %w", v, boom)
		case v > 3:
			<-ctx.Done()
		}
		return v, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := ran.Load(); n == int64(len(items)) {
		t.Fatalf("all %d items ran despite an early failure", n)
	}
}

// TestMapCancelDrains checks cancelling ctx mid-run stops the pool,
// returns ctx.Err(), and every worker exits (no goroutine keeps
// feeding after Map returns).
func TestMapCancelDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 10_000)
	var started atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Map(ctx, items, 4, func(ctx context.Context, v int) (int, error) {
			if started.Add(1) == 8 {
				cancel()
			}
			select {
			case <-ctx.Done():
			case <-time.After(time.Millisecond):
			}
			return v, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Map did not drain after cancellation")
	}
	cancel()
	after := started.Load()
	time.Sleep(10 * time.Millisecond)
	if started.Load() != after {
		t.Fatal("items kept starting after Map returned")
	}
	if after == int64(len(items)) {
		t.Fatal("cancellation did not stop the feed early")
	}
}

// TestMapAlreadyCancelled checks an already-dead context runs nothing.
func TestMapAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := Map(ctx, make([]int, 100), 4, func(context.Context, int) (int, error) {
		ran.Add(1)
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d items ran under a pre-cancelled context", ran.Load())
	}
}

package engine

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func bytesSize(v []byte) int64 { return int64(len(v)) }

func TestMemoHitAndMiss(t *testing.T) {
	m := NewMemo[[]byte](4, 0, bytesSize)
	calls := 0
	fn := func(context.Context) ([]byte, error) { calls++; return []byte("v"), nil }
	v, shared, err := m.Do(context.Background(), "k", fn)
	if err != nil || shared || string(v) != "v" {
		t.Fatalf("first Do = %q, shared=%v, err=%v", v, shared, err)
	}
	v, shared, err = m.Do(context.Background(), "k", fn)
	if err != nil || !shared || string(v) != "v" {
		t.Fatalf("second Do = %q, shared=%v, err=%v", v, shared, err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
}

func TestMemoEntryEviction(t *testing.T) {
	m := NewMemo[[]byte](2, 0, bytesSize)
	m.Put("a", []byte("a"))
	m.Put("b", []byte("b"))
	m.Get("a") // refresh a; b is now LRU
	m.Put("c", []byte("c"))
	if _, ok := m.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := m.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}
}

// TestMemoByteBound checks the cache evicts by total value bytes, not
// just entry count, and that Bytes() tracks the live total.
func TestMemoByteBound(t *testing.T) {
	m := NewMemo[[]byte](0, 100, bytesSize)
	m.Put("a", make([]byte, 40))
	m.Put("b", make([]byte, 40))
	if got := m.Bytes(); got != 80 {
		t.Fatalf("bytes = %d, want 80", got)
	}
	m.Put("c", make([]byte, 40)) // 120 > 100: evicts a
	if _, ok := m.Get("a"); ok {
		t.Fatal("a should have been evicted by the byte bound")
	}
	if got, n := m.Bytes(), m.Len(); got != 80 || n != 2 {
		t.Fatalf("bytes = %d len = %d, want 80 and 2", got, n)
	}
	// A value alone too large for the budget is returned but not cached.
	m.Put("huge", make([]byte, 500))
	if _, ok := m.Get("huge"); ok {
		t.Fatal("an over-budget value was cached")
	}
	if got := m.Bytes(); got > 100 {
		t.Fatalf("bytes = %d exceeds the bound", got)
	}
}

// TestMemoSingleflight is the contract the service's endpoint dedup
// rides on: N concurrent Do calls for one key run fn exactly once, and
// every caller sees the same value.
func TestMemoSingleflight(t *testing.T) {
	m := NewMemo[[]byte](4, 0, bytesSize)
	const n = 32
	var (
		calls   atomic.Int64
		entered = make(chan struct{})
		release = make(chan struct{})
		wg      sync.WaitGroup
	)
	fn := func(context.Context) ([]byte, error) {
		calls.Add(1)
		close(entered) // fn runs once; a second close would panic the test
		<-release      // hold every joiner in-flight until all have arrived
		return []byte("shared"), nil
	}
	results := make([][]byte, n)
	sharedCount := atomic.Int64{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := m.Do(context.Background(), "k", fn)
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if shared {
				sharedCount.Add(1)
			}
			results[i] = v
		}(i)
	}
	// Wait until one caller is inside fn, then release it.
	<-entered
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times for %d concurrent callers, want 1", calls.Load(), n)
	}
	if sharedCount.Load() != n-1 {
		t.Fatalf("%d callers saw a shared result, want %d", sharedCount.Load(), n-1)
	}
	for i := range results {
		if string(results[i]) != "shared" {
			t.Fatalf("caller %d got %q", i, results[i])
		}
	}
}

// TestMemoErrorNotCached checks a failed computation is retried, not
// memoized.
func TestMemoErrorNotCached(t *testing.T) {
	m := NewMemo[[]byte](4, 0, bytesSize)
	boom := errors.New("boom")
	calls := 0
	_, _, err := m.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
		calls++
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, shared, err := m.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
		calls++
		return []byte("ok"), nil
	})
	if err != nil || shared || string(v) != "ok" {
		t.Fatalf("retry = %q, shared=%v, err=%v", v, shared, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2", calls)
	}
}

// TestMemoCancelledLeaderHandsOver checks a waiter whose context is
// still live takes over when the computing caller dies of its own
// cancellation, instead of inheriting the cancellation error.
func TestMemoCancelledLeaderHandsOver(t *testing.T) {
	m := NewMemo[[]byte](4, 0, bytesSize)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	inFlight := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := m.Do(leaderCtx, "k", func(ctx context.Context) ([]byte, error) {
			close(inFlight)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader err = %v, want context.Canceled", err)
		}
	}()

	<-inFlight
	waiterDone := make(chan error, 1)
	ran := false
	go func() {
		_, _, err := m.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
			ran = true
			return []byte("rescued"), nil
		})
		waiterDone <- err
	}()
	// The waiter is parked on the leader's flight; cancel the leader.
	cancelLeader()
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter err = %v, want nil (hand-over)", err)
	}
	if !ran {
		t.Fatal("waiter never took over the computation")
	}
	wg.Wait()
	if v, ok := m.Get("k"); !ok || string(v) != "rescued" {
		t.Fatalf("cache holds %q, %v; want the waiter's value", v, ok)
	}
}

// TestMemoPanicReleasesFlight checks a panicking computation does not
// strand its key: the panic continues in the computing goroutine, a
// caller waiting on the flight gets an error instead of blocking until
// its own context ends, and a later Do for the key computes afresh.
func TestMemoPanicReleasesFlight(t *testing.T) {
	m := NewMemo[[]byte](4, 0, bytesSize)
	inFlight, release := make(chan struct{}), make(chan struct{})
	var leaderFlight *flight[[]byte]
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		_, _, _ = m.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
			m.mu.Lock()
			leaderFlight = m.flights["k"]
			m.mu.Unlock()
			close(inFlight)
			<-release
			panic("boom")
		})
	}()

	<-inFlight
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := m.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
			return []byte("waiter"), nil
		})
		waiterDone <- err
	}()
	close(release)
	if p := <-recovered; p != "boom" {
		t.Fatalf("computing goroutine recovered %v, want the panic to continue there", p)
	}
	m.mu.Lock()
	stranded := m.flights["k"] == leaderFlight
	m.mu.Unlock()
	if stranded {
		t.Fatal("the panicked flight still holds the key: every later caller would block")
	}
	// The waiter either was parked on the panicked flight or arrived
	// after it settled and computed the key itself.
	if err := <-waiterDone; err != nil && !errors.Is(err, errFlightPanicked) {
		t.Fatalf("waiter err = %v, want nil or errFlightPanicked", err)
	}
	v, _, err := m.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
		return []byte("later"), nil
	})
	if err != nil || (string(v) != "later" && string(v) != "waiter") {
		t.Fatalf("later Do = %q, %v; want a fresh value", v, err)
	}
}

func TestWriteCSV(t *testing.T) {
	var b1, b2 bytes.Buffer
	rows := [][]string{{"1", "a,b"}, {"2", `quo"te`}}
	if err := WriteCSV(&b1, []string{"n", "s"}, len(rows), func(i int) []string { return rows[i] }); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSVRows(&b2, []string{"n", "s"}, rows); err != nil {
		t.Fatal(err)
	}
	want := "n,s\n1,\"a,b\"\n2,\"quo\"\"te\"\n"
	if b1.String() != want || b2.String() != b1.String() {
		t.Fatalf("CSV = %q / %q, want %q", b1.String(), b2.String(), want)
	}
}

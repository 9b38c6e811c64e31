package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"tradeoff/internal/obs"
)

// decodeTrace unmarshals a tracer's JSON export for assertions.
func decodeTrace(t *testing.T, tr *obs.Tracer) []struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TID  int            `json:"tid"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
} {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TID  int            `json:"tid"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, buf.String())
	}
	return events
}

// TestMapTracesEveryItem pins the acceptance invariant: one span per
// evaluated item, named from the context, laned by worker slot, with
// queue-wait recorded.
func TestMapTracesEveryItem(t *testing.T) {
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	ctx = obs.WithSpanName(ctx, "sweep_point")

	items := make([]int, 17)
	for i := range items {
		items[i] = i
	}
	out, err := Map(ctx, items, 3, func(_ context.Context, v int) (int, error) {
		return v * v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(items) {
		t.Fatalf("%d results", len(out))
	}
	events := decodeTrace(t, tr)
	if len(events) != len(items) {
		t.Fatalf("span count = %d, want %d (one per evaluated item)", len(events), len(items))
	}
	seen := map[int]bool{}
	for _, ev := range events {
		if ev.Name != "sweep_point" || ev.Ph != "X" {
			t.Fatalf("event %+v", ev)
		}
		if ev.TID < 0 || ev.TID >= 3 {
			t.Fatalf("tid %d outside worker slots [0,3)", ev.TID)
		}
		idx := int(ev.Args["index"].(float64))
		if seen[idx] {
			t.Fatalf("item %d traced twice", idx)
		}
		seen[idx] = true
		if _, ok := ev.Args["queue_wait_us"]; !ok {
			t.Fatalf("event missing queue_wait_us: %+v", ev)
		}
	}
}

// TestMapSpansNestChildren checks that a span started inside fn lands
// on the item span's worker lane — the nesting the trace viewer
// renders.
func TestMapSpansNestChildren(t *testing.T) {
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	_, err := Map(ctx, []int{0, 1}, 1, func(ctx context.Context, v int) (int, error) {
		_, child := obs.StartSpan(ctx, "child")
		child.End()
		// fn can annotate the item span that wraps it.
		obs.CurrentSpan(ctx).SetArg("item", v)
		return v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, tr)
	if len(events) != 4 {
		t.Fatalf("span count = %d, want 4 (2 items + 2 children)", len(events))
	}
	for _, ev := range events {
		if ev.TID != 0 {
			t.Fatalf("single worker slot, but tid = %d", ev.TID)
		}
	}
}

func TestMapFeedsEngineStats(t *testing.T) {
	st := obs.NewEngineStats()
	ctx := obs.WithEngineStats(context.Background(), st)
	const n = 9
	_, err := Map(ctx, make([]int, n), 2, func(context.Context, int) (int, error) {
		time.Sleep(time.Microsecond)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Eval.Count() != n || st.QueueWait.Count() != n {
		t.Fatalf("eval count = %d, queue count = %d, want %d", st.Eval.Count(), st.QueueWait.Count(), n)
	}
	if st.Eval.Sum() <= 0 {
		t.Fatal("eval histogram saw no time")
	}
}

func TestMemoOutcomesTracedAndCounted(t *testing.T) {
	tr := obs.NewTracer()
	st := obs.NewEngineStats()
	ctx := obs.WithTracer(context.Background(), tr)
	ctx = obs.WithEngineStats(ctx, st)

	m := NewMemo[int](0, 0, nil)
	compute := func(context.Context) (int, error) { return 42, nil }

	if _, shared, _ := m.Do(ctx, "k", compute); shared {
		t.Fatal("first Do should be a miss")
	}
	if _, shared, _ := m.Do(ctx, "k", compute); !shared {
		t.Fatal("second Do should hit")
	}
	if st.MemoMiss.Load() != 1 || st.MemoHit.Load() != 1 {
		t.Fatalf("miss=%d hit=%d, want 1/1", st.MemoMiss.Load(), st.MemoHit.Load())
	}

	// Shared flight: a slow leader plus a follower on a new key.
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Do(ctx, "slow", func(context.Context) (int, error) {
			<-release
			return 7, nil
		})
	}()
	// Wait until the leader's flight is registered.
	for {
		m.mu.Lock()
		_, inflight := m.flights["slow"]
		m.mu.Unlock()
		if inflight {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Do(ctx, "slow", compute)
	}()
	time.Sleep(time.Millisecond)
	close(release)
	<-done
	wg.Wait()
	if st.MemoShared.Load() != 1 {
		t.Fatalf("shared = %d, want 1", st.MemoShared.Load())
	}

	outcomes := map[string]int{}
	for _, ev := range decodeTrace(t, tr) {
		if ev.Name != "memo" {
			t.Fatalf("span name %q", ev.Name)
		}
		outcomes[fmt.Sprint(ev.Args["outcome"])]++
	}
	want := map[string]int{"miss": 2, "hit": 1, "shared": 1}
	for k, n := range want {
		if outcomes[k] != n {
			t.Fatalf("outcomes = %v, want %v", outcomes, want)
		}
	}
}

// TestMapUninstrumentedUnchanged guards the fast path: without obs in
// the context, Map still works and no spans appear from a tracer used
// elsewhere.
func TestMapUninstrumentedUnchanged(t *testing.T) {
	out, err := Map(context.Background(), []int{1, 2, 3}, 2, func(_ context.Context, v int) (int, error) {
		return v + 1, nil
	})
	if err != nil || len(out) != 3 || out[0] != 2 {
		t.Fatalf("out = %v, err = %v", out, err)
	}
}

package obs

import (
	"encoding/json"
	"slices"
	"sync"
	"time"
)

// Exemplar is one retained slow-request outlier: the tail-based
// capture policy pins the request's full span tree (as a trace_event
// JSON array relative to the request start) next to the dimensions
// needed to reproduce it — endpoint, canonical-key hash, request ID —
// and the rolling-p99 threshold it tripped.
type Exemplar struct {
	Endpoint    string          `json:"endpoint"`
	RequestID   string          `json:"request_id,omitempty"`
	Key         string          `json:"key,omitempty"` // canonical-request key hash
	Time        time.Time       `json:"time"`
	DurationUS  int64           `json:"duration_us"`
	P99US       int64           `json:"p99_us"`       // rolling p99 at capture
	ThresholdUS int64           `json:"threshold_us"` // factor × p99
	Spans       json.RawMessage `json:"spans"`
}

// Exemplars is the bounded store behind GET /debug/slow. Add evicts
// oldest-first once the budget is reached, so a burst of outliers
// costs a fixed amount of memory and the newest evidence always wins.
type Exemplars struct {
	mu   sync.Mutex
	kept ring[Exemplar]
}

// NewExemplars returns a store keeping at most keep exemplars
// (minimum 1).
func NewExemplars(keep int) *Exemplars {
	return &Exemplars{kept: newRing[Exemplar](max(keep, 1))}
}

// Add retains e, evicting the oldest exemplar when over budget.
func (x *Exemplars) Add(e Exemplar) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.kept.push(e)
}

// Len returns the number of retained exemplars.
func (x *Exemplars) Len() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.kept.items)
}

// Captured returns the total exemplars ever captured, including the
// evicted ones.
func (x *Exemplars) Captured() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.kept.pushed
}

// Snapshot returns the retained exemplars, newest first — the order
// an operator debugging "what just got slow" wants.
func (x *Exemplars) Snapshot() []Exemplar {
	x.mu.Lock()
	out := x.kept.inOrder()
	x.mu.Unlock()
	slices.Reverse(out)
	return out
}

package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// QueryTrace is one slow-query record: everything needed to explain why a
// query was slow after the fact — which strategy answered it, whether the
// prepared-plan cache hit, how many rows came back and how long it took.
type QueryTrace struct {
	Time         time.Time     `json:"time"`
	Query        string        `json:"query,omitempty"`
	Strategy     string        `json:"strategy,omitempty"`
	Prepared     bool          `json:"prepared"`
	PlanCacheHit bool          `json:"plan_cache_hit"`
	Duration     time.Duration `json:"duration_ns"`
	Rows         int           `json:"rows"`
	Err          string        `json:"err,omitempty"`
}

// SlowLog is a bounded ring buffer of QueryTrace records. The hot-path
// contract mirrors the metrics primitives: Note is one atomic load and a
// compare — no lock, no allocation — and only queries at or above the
// threshold pay for building and storing a record. A nil SlowLog discards
// everything.
type SlowLog struct {
	threshold atomic.Int64 // ns; queries >= threshold are recorded

	mu   sync.Mutex
	ring []QueryTrace
	next int // ring write cursor
	n    int // records currently held (≤ len(ring))
	seen uint64
}

// NewSlowLog returns a slow log holding up to capacity records of queries
// that took at least threshold. capacity ≤ 0 defaults to 256.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity <= 0 {
		capacity = 256
	}
	l := &SlowLog{ring: make([]QueryTrace, capacity)}
	l.threshold.Store(threshold.Nanoseconds())
	return l
}

// Note reports whether a query of duration d should be recorded. It is the
// lock-free hot-path check: callers build the (allocating) QueryTrace only
// when Note returns true.
func (l *SlowLog) Note(d time.Duration) bool {
	if l == nil {
		return false
	}
	return d.Nanoseconds() >= l.threshold.Load()
}

// SetThreshold replaces the recording threshold at runtime.
func (l *SlowLog) SetThreshold(d time.Duration) {
	if l == nil {
		return
	}
	l.threshold.Store(d.Nanoseconds())
}

// Threshold returns the current recording threshold.
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return time.Duration(l.threshold.Load())
}

// Record stores one trace, evicting the oldest when full.
func (l *SlowLog) Record(t QueryTrace) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.ring[l.next] = t
	l.next = (l.next + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	l.seen++
	l.mu.Unlock()
}

// Snapshot returns the retained records, oldest first.
func (l *SlowLog) Snapshot() []QueryTrace {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]QueryTrace, 0, l.n)
	start := l.next - l.n
	if start < 0 {
		start += len(l.ring)
	}
	for i := 0; i < l.n; i++ {
		out = append(out, l.ring[(start+i)%len(l.ring)])
	}
	return out
}

// Seen returns the total number of records ever stored (including evicted).
func (l *SlowLog) Seen() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen
}

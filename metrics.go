package webreason

import (
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
)

// serverMetrics is the server's instrumentation surface: nil-safe obs
// handles for every hot-path signal, carried by value on the Server so the
// instrumented paths never chase an extra pointer. When observability is
// off (no ServerOptions.Obs), on is false and every field is nil — the
// instrumented paths pay one predictable branch and skip even the
// time.Now() calls, preserving the uninstrumented cost exactly.
type serverMetrics struct {
	on bool
	// strategy is the serving strategy's name, captured at construction so
	// the hot path never loads the strategy just to label a trace.
	strategy string
	slow     *obs.SlowLog

	// Read path, labeled by strategy. prepared=true/false separates the
	// prepared-plan executions from ad hoc Query/Ask calls.
	queryLatency    *obs.Histogram
	preparedLatency *obs.Histogram
	queryErrors     *obs.Counter
	planPoolHits    *obs.Counter
	planPoolMisses  *obs.Counter

	// Write path.
	enqueueWait        *obs.Histogram
	rejectedOverloaded *obs.Counter
	rejectedDegraded   *obs.Counter
	applyLatency       *obs.Histogram
	batchSize          *obs.Histogram
	sessionWait        *obs.Histogram
}

// newServerMetrics builds the server's metric families against reg,
// labeled with the serving strategy's name. A nil reg returns a disabled
// (all-nil) value.
func newServerMetrics(reg *obs.Registry, slow *obs.SlowLog, strategy string) serverMetrics {
	if reg == nil {
		return serverMetrics{}
	}
	return serverMetrics{
		on:       true,
		strategy: strategy,
		slow:     slow,
		queryLatency: reg.Histogram("webreason_query_seconds",
			"Query/Ask latency against the current snapshot.", 1e-9,
			"strategy", strategy, "prepared", "false"),
		preparedLatency: reg.Histogram("webreason_query_seconds",
			"Query/Ask latency against the current snapshot.", 1e-9,
			"strategy", strategy, "prepared", "true"),
		queryErrors: reg.Counter("webreason_query_errors_total",
			"Queries that returned an error.", "strategy", strategy),
		planPoolHits: reg.Counter("webreason_prepared_pool_hits_total",
			"Prepared executions that ran on the already-compiled shared plan.", "strategy", strategy),
		planPoolMisses: reg.Counter("webreason_prepared_pool_misses_total",
			"Prepared executions that first built a plan on the call: compiled, recompiled (schema change, strategy swap, newly resolvable constant) or re-planned (size drift).", "strategy", strategy),
		enqueueWait: reg.Histogram("webreason_enqueue_wait_seconds",
			"Time writes spent blocked on MaxPending backpressure.", 1e-9),
		rejectedOverloaded: reg.Counter("webreason_writes_rejected_total",
			"Writes refused by the server.", "reason", "overloaded"),
		rejectedDegraded: reg.Counter("webreason_writes_rejected_total",
			"Writes refused by the server.", "reason", "degraded"),
		applyLatency: reg.Histogram("webreason_apply_seconds",
			"Writer time to log and apply one drained mutation batch.", 1e-9),
		batchSize: reg.Histogram("webreason_apply_batch_calls",
			"Mutation calls per drained batch.", 1),
		sessionWait: reg.Histogram("webreason_session_wait_seconds",
			"Waits for the applied watermark: session reads, Session.Position, Flush (slow path only).", 1e-9),
	}
}

// registerServerFuncs exposes server state that something already tracks —
// queue depth, watermark lag, degradation, the serving strategy's write
// epochs — as exposition-time gauges and counters, plus the package-level
// prepared-plan lifecycle counters and the Go runtime's collector family.
// Func registration replaces by identity, so the second server of a promotion
// test (or a follower reopening against a shared registry) wins the series.
// The constructors call it last: the functions read the strategy and the
// follower.
func registerServerFuncs(reg *obs.Registry, s *Server) {
	if reg == nil {
		return
	}
	obs.RegisterRuntime(reg)
	reg.CounterFunc("webreason_views_published_total",
		"Read views the serving strategy has published: one per drained mutation queue on a primary, one per shipped chunk on a follower (restarts from zero when a follower re-bootstraps).",
		func() float64 { return float64(s.reading().WriteStats().Views) })
	reg.CounterFunc("webreason_store_copied_total",
		"Copy-on-write copies (trie nodes, index entries, postings leaves) the serving store's writes have paid because a published view or a checkpoint capture had frozen them, as of the current view.",
		func() float64 { return float64(s.reading().WriteStats().StoreCopied) })
	reg.Func("webreason_queue_depth",
		"Queued-but-unapplied mutation calls (the MaxPending bound applies here).",
		func() float64 {
			s.mu.Lock()
			n := len(s.queue)
			s.mu.Unlock()
			return float64(n)
		})
	reg.Func("webreason_watermark_lag",
		"Accepted mutation calls not yet applied (enqueued - applied).",
		func() float64 {
			s.mu.Lock()
			lag := s.enqueued - s.applied.Load()
			s.mu.Unlock()
			return float64(lag)
		})
	reg.Func("webreason_degraded",
		"1 when the server is in degraded read-only mode.",
		func() float64 {
			if s.Health().Degraded {
				return 1
			}
			return 0
		})
	reg.CounterFunc("webreason_mutations_enqueued_total",
		"Mutation calls accepted into the queue.",
		func() float64 {
			s.mu.Lock()
			n := s.enqueued
			s.mu.Unlock()
			return float64(n)
		})
	reg.CounterFunc("webreason_mutations_applied_total",
		"Mutation calls applied (or, after degradation, refused) by the writer.",
		func() float64 { return float64(s.applied.Load()) })
	reg.CounterFunc("webreason_plan_compiled_total",
		"BGP plans compiled: per prepared compile or recompile, per plan of a reformulated union (one per product-shaped run of branches, one per other branch), per ad hoc query (process-wide).",
		func() float64 { return float64(engine.PlanStats.Compiled.Load()) })
	reg.CounterFunc("webreason_plan_replanned_total",
		"Shared-plan statistics-only replans (process-wide).",
		func() float64 { return float64(engine.PlanStats.Replanned.Load()) })
	reg.CounterFunc("webreason_refplan_rebuilt_total",
		"Reformulation rewritings compiled into a union plan: per prepared compile or recompile, per ad hoc query (process-wide).",
		func() float64 { return float64(core.RefPlanStats.Rebuilt.Load()) })
}

// monoBase anchors the read path's latency timestamps. time.Since on a
// monotonic time performs a single monotonic-clock read, where time.Now
// also reads the wall clock; the query paths take two readings per
// execution, so reading offsets from a fixed base nearly halves the
// per-query clock cost.
var monoBase = time.Now()

// monoNow returns the monotonic offset from monoBase; the difference of
// two readings is a query duration.
func monoNow() time.Duration { return time.Since(monoBase) }

// noteQuery records one read-path completion: latency histogram, error
// count, and — when the slow log's threshold is crossed — a full trace.
// Plain arguments (no closures) keep the happy path allocation-free.
func (m *serverMetrics) noteQuery(q *Query, prepared, poolHit bool, d time.Duration, rows int, err error) {
	h := m.queryLatency
	if prepared {
		h = m.preparedLatency
		if poolHit {
			m.planPoolHits.Inc()
		} else {
			m.planPoolMisses.Inc()
		}
	}
	h.Observe(d.Nanoseconds())
	if err != nil {
		m.queryErrors.Inc()
	}
	if m.slow.Note(d) {
		tr := obs.QueryTrace{
			Time:         time.Now(),
			Strategy:     m.strategy,
			Prepared:     prepared,
			PlanCacheHit: poolHit,
			Duration:     d,
			Rows:         rows,
		}
		if q != nil {
			tr.Query = q.String()
		}
		if err != nil {
			tr.Err = err.Error()
		}
		m.slow.Record(tr)
	}
}

package main

import (
	"fmt"
	"sync"
	"time"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/engine"
)

// opStats is what one client goroutine records during a window. An operation
// is a whole round (or a whole update batch); a failed operation counts in
// failed and contributes no latency.
type opStats struct {
	attempted, failed int
	queries           int
	failures          []string // the first few, for the report
	prepared, adhoc   latencies
	scan, ack         latencies
	triples           int // update triples sent
}

func (st *opStats) fail(format string, args ...any) {
	st.failed++
	if len(st.failures) < 5 {
		st.failures = append(st.failures, fmt.Sprintf(format, args...))
	}
}

func (st *opStats) merge(o *opStats) {
	st.attempted += o.attempted
	st.failed += o.failed
	st.queries += o.queries
	st.triples += o.triples
	st.failures = append(st.failures, o.failures...)
	st.prepared = append(st.prepared, o.prepared...)
	st.adhoc = append(st.adhoc, o.adhoc...)
	st.scan = append(st.scan, o.scan...)
	st.ack = append(st.ack, o.ack...)
}

// reader is one closed-loop read client: it walks the seeded binding order
// round by round and waits for every reply before sending the next query.
type reader struct {
	s *serving
	// or is nil when answers change under concurrent writes; then only
	// errors fail a round and answers are checked after the window.
	or    *oracle
	order []int
	pos   int
	tr    *clientTrace // nil in an untraced run
	res   []*engine.Result
	st    opStats
}

func newReader(s *serving, or *oracle, order []int) *reader {
	return &reader{s: s, or: or, order: order, res: make([]*engine.Result, len(pointNames))}
}

func (r *reader) nextBinding() int {
	bi := r.order[r.pos%len(r.order)]
	r.pos++
	return bi
}

// finish records a completed round that took d and ended at now: its latency
// when it succeeded inside the window, a failure otherwise. A round that ends
// after the deadline is dropped, so a window counts only work completed
// inside it.
func (r *reader) finish(lat *latencies, d time.Duration, now, deadline time.Time, n int, err error) bool {
	if now.After(deadline) {
		return false
	}
	r.st.attempted++
	if err != nil {
		r.st.fail("%v", err)
		return true
	}
	r.st.queries += n
	lat.add(d)
	return true
}

// check compares a round's answers with the oracle's: row counts always, the
// full hash on every hashEvery-th round.
func (r *reader) check(kind string, exp []expect, texts []string) error {
	full := r.st.attempted%hashEvery == 0
	for i, e := range exp {
		if !e.matches(r.res[i], r.s.kb.Dict(), full) {
			return fmt.Errorf("%s: wrong answer (want %d rows) for %s", kind, e.rows, texts[i])
		}
	}
	return nil
}

// preparedRound answers the point set from the plans prepared in set-up.
func (r *reader) preparedRound(deadline time.Time) bool {
	bi := r.nextBinding()
	var d time.Duration
	var err error
	if r.tr != nil {
		d, err = r.tr.preparedRound(r, bi)
	} else {
		start := time.Now()
		for i, p := range r.s.prepared[bi] {
			if r.res[i], err = p.Answer(); err != nil {
				break
			}
		}
		d = time.Since(start)
	}
	if err == nil && r.or != nil {
		err = r.check("prepared", r.or.point[bi], r.s.pointText[bi])
	}
	return r.finish(&r.st.prepared, d, time.Now(), deadline, len(pointNames), err)
}

// textRound answers one set from SPARQL text: parse, then Server.Query. exp
// is nil when answers cannot be checked inside the window.
func (r *reader) textRound(kind string, texts []string, exp []expect, lat *latencies, deadline time.Time) bool {
	var d time.Duration
	var err error
	if r.tr != nil {
		d, err = r.tr.textRound(r, kind, texts)
	} else {
		start := time.Now()
		for i, text := range texts {
			var q *webreason.Query
			if q, err = webreason.ParseQuery(text); err != nil {
				break
			}
			if r.res[i], err = r.s.srv.Query(q); err != nil {
				break
			}
		}
		d = time.Since(start)
	}
	if err == nil && exp != nil {
		err = r.check(kind, exp, texts)
	}
	return r.finish(lat, d, time.Now(), deadline, len(texts), err)
}

// pointClient alternates prepared and adhoc rounds over the same point set
// and bindings until the deadline.
func (r *reader) pointClient(deadline time.Time) {
	for {
		if !r.preparedRound(deadline) {
			return
		}
		bi := r.order[(r.pos-1)%len(r.order)] // the binding the prepared round just used
		var exp []expect
		if r.or != nil {
			exp = r.or.point[bi]
		}
		if !r.textRound("adhoc", r.s.pointText[bi], exp, &r.st.adhoc, deadline) {
			return
		}
	}
}

// scanClient runs scan rounds from text until the deadline.
func (r *reader) scanClient(deadline time.Time) {
	for {
		u := r.s.bindings[r.nextBinding()].univ
		if !r.textRound("scan", r.s.scanText[u], r.or.scan[u], &r.st.scan, deadline) {
			return
		}
	}
}

// preparedClient runs prepared rounds only (the reader beside sat.update's
// writer).
func (r *reader) preparedClient(deadline time.Time) {
	for r.preparedRound(deadline) {
	}
}

// window runs the clients concurrently, one goroutine each, for the warm-up,
// calls reset to discard what they recorded, then runs them for the measured
// window d and returns how long that took (a client may finish its last
// operation, or flush, after the deadline).
func window(warmup, d time.Duration, clients []func(deadline time.Time), reset func()) time.Duration {
	phase := func(d time.Duration) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c(start.Add(d))
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	phase(warmup)
	reset()
	return phase(d)
}

// runReads is sat.read and ref.read: the same operation stream against the
// Saturation or the Reformulation strategy. Client 0 alternates prepared and
// adhoc point rounds, client 1 runs scan rounds.
func runReads(workload, strategy string, seed int64, sc scale, trace bool) (*report, error) {
	rep := &report{workload: workload, seed: seed}
	if trace {
		sc.setups = 1 // a traced run reports no setup_s
	}
	s, setupS, heapMB, err := repeatSetUp(sc,
		func() (*serving, error) { return setUpServing(strategy, sc, "") },
		(*serving).close)
	if err != nil {
		return nil, err
	}
	defer s.close()

	// The oracle is backward chaining over the same knowledge base: a
	// different strategy than either one under test, sharing the dictionary.
	or, err := buildOracle(core.NewBackward(s.kb), s.kb.Dict(), sc)
	if err != nil {
		return nil, err
	}
	order := bindingOrder(seed, or.eligible)
	c0 := newReader(s, or, order)
	c1 := newReader(s, or, bindingOrder(seed+1, or.eligible))
	c1.res = make([]*engine.Result, len(scanNames))
	clients := []func(time.Time){c0.pointClient, c1.scanClient}
	reset := func() { c0.st, c1.st = opStats{}, opStats{} }

	d := sc.window
	if trace {
		d /= 3 // the untraced third is the baseline of the tracing overhead
	}
	window(sc.warmup, d, clients, reset)
	untraced := c0.st
	untraced.merge(&c1.st)
	if trace {
		tr := newTracer(workload)
		tr.attachReaders(s, c0, c1)
		window(sc.warmup, sc.window*2/3, clients, func() { reset(); tr.reset(s) })
		traced := c0.st
		traced.merge(&c1.st)
		rep.count(&traced)
		rep.layers = tr.readLayers(s, &untraced, &traced)
		return rep, tr.write(rep)
	}
	rep.count(&untraced)
	rep.metrics = append([]metric{setupS, heapMB}, readMetrics(&untraced, d)...)
	rep.notes = append(rep.notes,
		tailNote("prepared round", untraced.prepared, "us", 1e3),
		tailNote("adhoc round", untraced.adhoc, "us", 1e3),
		tailNote("scan round", untraced.scan, "ms", 1e6),
		fmt.Sprintf("bindings: %d of %d departments answer every point template", len(or.eligible), len(s.bindings)),
		fmt.Sprintf("prepared-plan pool: %.0f hits, %.0f misses (a miss compiles, and under Reformulation rewrites, again)",
			scrapeCounter(s.reg, "webreason_prepared_pool_hits_total"), scrapeCounter(s.reg, "webreason_prepared_pool_misses_total")))
	return rep, nil
}

// readMetrics are the read workloads' named metrics. queries_s counts the
// queries both clients completed inside the window of length d.
func readMetrics(st *opStats, d time.Duration) []metric {
	return []metric{
		timing("prepared_p50_us", "us", st.prepared, 0.5, 1e3),
		timing("prepared_p99_us", "us", st.prepared, 0.99, 1e3),
		timing("adhoc_p50_us", "us", st.adhoc, 0.5, 1e3),
		timing("adhoc_p99_us", "us", st.adhoc, 0.99, 1e3),
		timing("scan_p50_ms", "ms", st.scan, 0.5, 1e6),
		{Name: "queries_s", Unit: "1/s", Value: float64(st.queries) / d.Seconds(), N: st.queries, Stat: "completed/window"},
	}
}

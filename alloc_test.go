//go:build !race

// Under the race detector sync.Pool drops a share of its Puts, so the engine's
// pooled scratch is not always there to reuse and executions allocate a new
// one; the gate judges the normal build.

package webreason_test

import (
	"maps"
	"testing"
	"time"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/lubm"
	"repro/internal/reformulate"
	"repro/internal/sparql"
)

// TestPreparedAnswerAllocs is the allocation gate on the hottest read path:
// a steady-state ServerPrepared.Answer on any of the three strategies
// allocates the result (header, row table, row arena) and nothing else — at
// most 3 allocs/op — and turning metrics on adds none: the instrumented path
// pays the latency histogram, the plan hit counter and the slow log's
// threshold check without allocating. A reformulated union is one engine
// execution — its branches share one scratch, one dedup set and one result —
// so its budget is saturation's whatever its width: the one-branch Q1, the
// 75-branch Q5, the 55-branch Q9 and Q6 alike. The strategy's source is a
// snapshot of G with its schema closed, so its match calls allocate nothing.
// Backward chaining reads the same snapshot through each pattern's one-atom
// rewritings, looked up in the closed schema with the closures on the stack,
// and leaves set semantics to the engine's dedup, so its match calls
// allocate nothing either. The dedup set allocates nothing per row at any
// width: "wide" projects four columns and drops ?n, which only its
// existential atom binds, so on saturation and on reformulation (one
// branch) it runs without a set, and on backward chaining, whose source can
// repeat a match, with a four-column one.
func TestPreparedAnswerAllocs(t *testing.T) {
	f := getFixture(t)
	qs := maps.Clone(f.qs)
	qs["wide"] = sparql.MustParse("PREFIX lubm: <" + lubm.NS + "> SELECT ?x ?y ?c ?z WHERE { " +
		"?x lubm:advisor ?y . ?x lubm:takesCourse ?c . ?x lubm:emailAddress ?z . ?x lubm:name ?n }")
	for _, mode := range []struct {
		name string
		opts webreason.ServerOptions
	}{
		{"metrics=off", webreason.ServerOptions{}},
		// A 1s threshold: every execution pays the slow-log check, none is
		// slow enough to build a trace — a healthy production steady state.
		{"metrics=on", webreason.ServerOptions{Obs: webreason.NewMetricsRegistry(), SlowLog: webreason.NewSlowLog(256, time.Second)}},
	} {
		for _, c := range []struct {
			strat  webreason.Strategy
			query  string
			budget float64
		}{
			{f.sat, "Q1", 3}, {f.sat, "Q5", 3}, {f.sat, "wide", 3},
			{f.ref, "Q1", 3}, {f.ref, "Q5", 3}, {f.ref, "Q6", 3}, {f.ref, "Q9", 3}, {f.ref, "wide", 3},
			{f.back, "Q1", 3}, {f.back, "Q5", 3}, {f.back, "Q6", 3}, {f.back, "Q9", 3}, {f.back, "wide", 3},
		} {
			srv := webreason.NewServer(c.strat, mode.opts)
			defer srv.Close()
			pq, err := srv.Prepare(qs[c.query])
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, err := pq.Answer(); err != nil {
					t.Fatal(err)
				}
			}
			run() // grow the scratch buffers, fill the pool, settle the row hint
			if got := testing.AllocsPerRun(200, run); got > c.budget {
				res, _ := pq.Answer()
				t.Errorf("%s/%s/%s (%d rows): %v allocs/op, want at most %v", mode.name, c.strat.Name(), c.query, len(res.Rows), got, c.budget)
			}
		}
	}
}

// TestAdhocAnswerAllocs pins what an ad hoc answer allocates. A saturated
// one compiles and plans the query, and takes one result sized from the
// planner's count of the plan's first step — one row table, one arena chunk
// — however many rows it holds; Q6 and Q14 project every variable of their
// one-pattern BGPs, so they take no dedup set either. A reformulated one,
// on the minimised union every served path runs, also rewrites the query
// and compiles and plans the union, and its one result is sized from the
// largest first-step count: Q6's union of five one-pattern branches is one
// plan over the five rewritings of its atom, sized by the largest and
// taking a dedup set of that size, and Q14's single branch takes none. Q5
// and Q13 have the largest plain unions of the 14 (75 and 100 branches), of
// which the rewriter builds only the 3 and 4 it keeps, one atom's
// rewritings again. Q2 and Q8 are 15-branch unions, 5 rewritings of the
// Student atom × 3 of the memberOf atom, each evaluated as one join of the
// atoms' unions.
func TestAdhocAnswerAllocs(t *testing.T) {
	f := getFixture(t)
	ref := core.NewReformulation(f.kb, reformulate.Options{Minimize: true})
	for _, c := range []struct {
		strat  webreason.Strategy
		query  string
		budget float64
	}{
		{f.sat, "Q6", 17}, {f.sat, "Q14", 17},
		{ref, "Q6", 58}, {ref, "Q14", 32}, {ref, "Q5", 52}, {ref, "Q13", 53}, {ref, "Q2", 94}, {ref, "Q8", 93},
	} {
		run := func() {
			if _, err := c.strat.Answer(f.qs[c.query]); err != nil {
				t.Fatal(err)
			}
		}
		run() // fill the scratch pool
		res, _ := c.strat.Answer(f.qs[c.query])
		if got := testing.AllocsPerRun(100, run); got > c.budget {
			t.Errorf("%s/%s ad hoc (%d rows): %v allocs/op, want at most %v", c.strat.Name(), c.query, len(res.Rows), got, c.budget)
		}
	}
}

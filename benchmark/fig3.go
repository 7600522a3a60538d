package main

import (
	"fmt"
	"math"
	"time"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/lubm"
	"repro/internal/rdf"
	"repro/internal/reason"
	"repro/internal/reformulate"
	"repro/internal/sparql"
	"repro/internal/store"
)

// fig3 is the set-up state of fig3.batch: one knowledge base, the three
// strategies built on it, and the 14 paper queries with their fixed
// univ0/dept0 constants.
type fig3 struct {
	kb      *core.KB
	sat     *core.Saturation
	ref     *core.Reformulation
	bwd     *core.Backward
	names   []string
	queries []*sparql.Query
	load    time.Duration
}

func setUpFig3(sc scale) (*fig3, error) {
	f := &fig3{kb: webreason.NewKB()}
	graph := lubm.GenerateWithOntology(dataConfig(sc))
	t0 := time.Now()
	if _, err := f.kb.LoadGraph(graph); err != nil {
		return nil, err
	}
	f.load = time.Since(t0)
	f.sat = core.NewSaturation(f.kb)
	f.ref = core.NewReformulation(f.kb, reformulate.Options{Minimize: true})
	f.bwd = core.NewBackward(f.kb)
	for _, q := range lubm.Queries() {
		f.names = append(f.names, q.Name)
		f.queries = append(f.queries, q.Parse())
	}
	return f, nil
}

// family is one maintenance kind of Figure 3. A cycle applies and undoes
// every triple of each family, on a clone of the materialisation (the live one
// is pinned by the strategy's read snapshot, which would charge copy-on-write
// to whichever update comes first). families returns them in the order
// instance insert, instance delete, schema insert, schema delete.
type family struct {
	del, schema bool
	ts          []store.Triple
}

const instanceUpdates = 16 // instance triples inserted (and deleted) per cycle

func (f *fig3) families(sc scale) []family {
	enc := func(ts []rdf.Triple) []store.Triple {
		out := make([]store.Triple, len(ts))
		for i, t := range ts {
			out[i] = f.kb.Encode(t)
		}
		return out
	}
	return []family{
		{del: false, ts: enc(lubm.InstanceUpdates(instanceUpdates))},
		{del: true, ts: enc(lubm.ExistingInstanceTriples(dataConfig(sc), instanceUpdates))},
		{del: false, schema: true, ts: enc(lubm.SchemaUpdates())},
		{del: true, schema: true, ts: enc(lubm.ExistingSchemaTriples())},
	}
}

// cycleTimes are the quantities one cycle measures: Figure 3's inputs.
type cycleTimes struct {
	// work is the cycle's timed work: saturation, the 42 answers and every
	// timed maintenance step, without the benchmark's own cloning, undoing
	// and checking.
	work          time.Duration
	saturate      time.Duration
	sat, ref, bwd []time.Duration // per query
	maint         [4]time.Duration
	derived, base int
}

// cycle runs the paper's experiment once: saturate from scratch, answer the
// 14 queries under each strategy, apply and undo each maintenance family one
// triple at a time. c is nil in an untraced run.
func (f *fig3) cycle(fams []family, c *clientTrace, rep *report) cycleTimes {
	var ct cycleTimes
	op, parent := int32(0), int32(0)
	span := func(name string) func() time.Duration {
		if c == nil {
			t0 := time.Now()
			return func() time.Duration { return time.Since(t0) }
		}
		i := c.begin(op, name, parent)
		return func() time.Duration { return c.end(i) }
	}
	if c != nil {
		op = c.beginOp("cycle")
		parent = c.begin(op, "fig3.cycle", -1)
	}

	done := span("reason.saturate")
	mat := reason.Materialize(f.kb.Base(), f.kb.Rules())
	ct.saturate = done()
	ct.base, ct.derived = mat.BaseLen(), mat.DerivedLen()

	// The paper's oracle: all three strategies agree on every query. Each
	// answer is one attempted operation.
	expected := make([]expect, len(f.queries))
	answers := func(name string, strat core.Strategy, out *[]time.Duration) []int32 {
		var spans []int32
		for i, q := range f.queries {
			done := span(name)
			res, err := strat.Answer(q)
			*out = append(*out, done())
			if c != nil {
				spans = append(spans, int32(len(c.spans)-1))
			}
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.failures = append(rep.failures, fmt.Sprintf("%s %s: %v", strat.Name(), f.names[i], err))
				continue
			}
			done = span("bench.check")
			e := expectOf(res, f.kb.Dict())
			done()
			if out == &ct.sat {
				expected[i] = e
			} else if e != expected[i] {
				rep.failed++
				rep.failures = append(rep.failures, fmt.Sprintf("%s %s: answer differs from saturation's", strat.Name(), f.names[i]))
			}
		}
		return spans
	}
	answers("core.saturation.answer", f.sat, &ct.sat)
	refSpans := answers("core.reformulation.answer", f.ref, &ct.ref)
	answers("core.backward.answer", f.bwd, &ct.bwd)
	ct.work = ct.saturate + sumDurations(ct.sat) + sumDurations(ct.ref) + sumDurations(ct.bwd)

	done = span("bench.clone")
	clone := f.sat.Materialization().Clone()
	done()
	for k, fam := range fams {
		apply, undo := clone.Insert, clone.Delete
		name := "reason.insert"
		if fam.del {
			apply, undo = clone.Delete, clone.Insert
			name = "reason.delete"
		}
		if fam.schema {
			name += ".schema"
		}
		var total time.Duration
		for _, t := range fam.ts {
			done := span(name)
			apply(t)
			total += done()
			done = span("bench.undo")
			undo(t)
			done()
		}
		ct.maint[k] = total / time.Duration(len(fam.ts))
		ct.work += total
	}
	if got, want := clone.Store().Len(), f.sat.Len(); got != want {
		rep.failCheck("maintenance undo left |G∞| = %d, want %d", got, want)
	}
	if c != nil {
		c.end(parent)
		// Rewriting alone, replayed after the cycle: the share of each
		// reformulated answer that is not evaluation.
		for i, answer := range refSpans {
			rw := c.begin(op, "reformulate.rewrite", answer)
			ucq, err := f.ref.Reformulate(f.queries[i])
			c.end(rw)
			if err == nil {
				c.add("cycle", "reformulate.branches", float64(ucq.Size()))
			}
		}
	}
	return ct
}

func sumDurations(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// runFig3 is fig3.batch: no server, one goroutine, the paper's own
// experiment, cycle after cycle for the length of the window.
func runFig3(seed int64, sc scale, trace bool) (*report, error) {
	rep := &report{workload: "fig3.batch", seed: seed}
	if trace {
		sc.setups = 1 // a traced run reports no setup_s
	}
	f, setupS, heapMB, err := repeatSetUp(sc,
		func() (*fig3, error) { return setUpFig3(sc) },
		func(*fig3) {})
	if err != nil {
		return nil, err
	}
	fams := f.families(sc)
	f.cycle(fams, nil, &report{}) // warm-up cycle

	run := func(d time.Duration, c *clientTrace) []cycleTimes {
		var out []cycleTimes
		for deadline := time.Now().Add(d); len(out) < 3 || time.Now().Before(deadline); {
			out = append(out, f.cycle(fams, c, rep))
		}
		return out
	}
	if trace {
		untraced := run(sc.window/3, nil)
		tr := newTracer(rep.workload)
		traced := run(sc.window*2/3, tr.newClient())
		rep.layers = fig3Layers(tr, f, untraced, traced)
		return rep, tr.write(rep)
	}
	cycles := run(sc.window, nil)

	med := func(get func(cycleTimes) time.Duration) time.Duration {
		ds := make([]time.Duration, len(cycles))
		for i, ct := range cycles {
			ds[i] = get(ct)
		}
		return medianDuration(ds)
	}
	ms := func(name string, get func(cycleTimes) time.Duration) metric {
		return metric{Name: name, Unit: "ms", Value: float64(med(get)) / 1e6, N: len(cycles), Stat: "median over cycles"}
	}
	maint := func(a, b int) func(cycleTimes) time.Duration {
		return func(ct cycleTimes) time.Duration { return (ct.maint[a] + ct.maint[b]) / 2 }
	}
	instance := ms("maint_instance_us", maint(0, 1))
	instance.Unit, instance.Value = "us", instance.Value*1e3
	rep.metrics = []metric{setupS, heapMB,
		ms("saturate_ms", func(ct cycleTimes) time.Duration { return ct.saturate }),
		ms("answer_sat_ms", func(ct cycleTimes) time.Duration { return sumDurations(ct.sat) }),
		ms("answer_ref_ms", func(ct cycleTimes) time.Duration { return sumDurations(ct.ref) }),
		ms("answer_bwd_ms", func(ct cycleTimes) time.Duration { return sumDurations(ct.bwd) }),
		instance,
		ms("maint_schema_ms", maint(2, 3)),
		ms("cycle_ms", func(ct cycleTimes) time.Duration { return ct.work }),
	}

	// Figure 3's thresholds, from the medians. Printed on every run, never
	// gated: a threshold is a break-even point, not a quantity with a better
	// direction.
	costs := core.MaintenanceCosts{
		Saturation:     med(func(ct cycleTimes) time.Duration { return ct.saturate }),
		InstanceInsert: med(func(ct cycleTimes) time.Duration { return ct.maint[0] }),
		InstanceDelete: med(func(ct cycleTimes) time.Duration { return ct.maint[1] }),
		SchemaInsert:   med(func(ct cycleTimes) time.Duration { return ct.maint[2] }),
		SchemaDelete:   med(func(ct cycleTimes) time.Duration { return ct.maint[3] }),
	}
	logSum := map[string]float64{}
	finite := map[string]int{}
	var series []string
	for i, name := range f.names {
		th := core.ComputeThresholds(costs, core.QueryCosts{
			EvalSaturated:      med(func(ct cycleTimes) time.Duration { return ct.sat[i] }),
			AnswerReformulated: med(func(ct cycleTimes) time.Duration { return ct.ref[i] }),
		})
		line := fmt.Sprintf("fig3.threshold %-4s", name)
		for _, s := range th.Series() {
			line += fmt.Sprintf(" %s=%g", s.Name, s.Value)
			if i == 0 {
				series = append(series, s.Name)
			}
			if s.Value > 0 && !math.IsInf(s.Value, 1) {
				logSum[s.Name] += math.Log(s.Value)
				finite[s.Name]++
			}
		}
		rep.notes = append(rep.notes, line)
	}
	for _, s := range series {
		if n := finite[s]; n > 0 {
			rep.notes = append(rep.notes, fmt.Sprintf("fig3.threshold_gmean %s=%.1f executions (over %d of %d queries with a finite threshold)",
				s, math.Exp(logSum[s]/float64(n)), n, len(f.names)))
		}
	}
	return rep, nil
}

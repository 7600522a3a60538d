package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	webreason "repro"
)

// decl declares one end-to-end metric: its unit, its better direction and
// the share by which it may worsen between two runs of the same code before
// -agree (and a later change's A/B) calls it a regression. A zero bound means
// the metric is reported but not gated; README.md gives the reason.
type decl struct {
	name   string
	unit   string
	higher bool
	bound  float64
}

// named lists, per workload, the end-to-end metrics in reporting order.
// Bounds are twice the spread README.md records for this machine's busier
// periods, capped at 15%: a metric that would need more is reported only.
var named = map[string][]decl{
	"sat.read":   readDecls,
	"ref.read":   readDecls,
	"sat.update": updateDecls,
	"fig3.batch": fig3Decls,
}

var (
	common    = []decl{{"setup_s", "s", false, 0.25}, {"heap_mb", "MB", false, 0.05}}
	readDecls = append(common[:2:2],
		decl{"prepared_p50_us", "us", false, 0.15},
		decl{"prepared_p99_us", "us", false, 0},
		decl{"adhoc_p50_us", "us", false, 0.15},
		decl{"adhoc_p99_us", "us", false, 0},
		decl{"scan_p50_ms", "ms", false, 0.15},
		decl{"queries_s", "1/s", true, 0.15})
	updateDecls = append(common[:2:2],
		decl{"update_triples_s", "1/s", true, 0},
		decl{"cycle_p50_ms", "ms", false, 0.15},
		decl{"ack_p50_us", "us", false, 0.15},
		decl{"ack_p99_us", "us", false, 0},
		decl{"prepared_p50_us", "us", false, 0},
		decl{"prepared_p99_us", "us", false, 0.15})
	fig3Decls = append(common[:2:2],
		decl{"saturate_ms", "ms", false, 0.15},
		decl{"answer_sat_ms", "ms", false, 0.15},
		decl{"answer_ref_ms", "ms", false, 0.15},
		decl{"answer_bwd_ms", "ms", false, 0.15},
		decl{"maint_instance_us", "us", false, 0},
		decl{"maint_schema_ms", "ms", false, 0},
		decl{"cycle_ms", "ms", false, 0.15})
)

// The benchmark driver reads one uniform set of end-to-end metrics from
// every workload (BENCHMARK.json's end_to_end), so each workload maps three of
// its named metrics onto three roles besides setup_s and heap_mb. README.md
// has the table; the named metrics stay the ones every report prints.
var driverRoles = map[string]map[string]string{
	"sat.read":   {"primary_us": "prepared_p50_us", "secondary_us": "adhoc_p50_us", "work_s": "queries_s"},
	"ref.read":   {"primary_us": "prepared_p50_us", "secondary_us": "adhoc_p50_us", "work_s": "queries_s"},
	"sat.update": {"primary_us": "ack_p50_us", "secondary_us": "prepared_p99_us", "work_s": "cycle_p50_ms"},
	"fig3.batch": {"primary_us": "answer_sat_ms", "secondary_us": "answer_ref_ms", "work_s": "cycle_ms"},
}

// driverEndToEnd renders a report's metrics under the driver's names.
func driverEndToEnd(rep *report) []metric {
	get := func(name string) metric {
		m, ok := rep.get(name)
		if !ok {
			panic("benchmark: workload " + rep.workload + " did not report " + name)
		}
		return m
	}
	out := []metric{get("setup_s"), get("heap_mb")}
	roles := driverRoles[rep.workload]
	for _, role := range []string{"primary_us", "secondary_us", "work_s"} {
		m := get(roles[role])
		switch {
		case role == "work_s" && m.Unit == "ms":
			// The work of sat.update and fig3.batch is a cycle time; its rate
			// is cycles per second.
			m.Value = 1e3 / m.Value
		case m.Unit == "ms":
			m.Value *= 1e3
		}
		m.Name, m.Unit = role, "us"
		if role == "work_s" {
			m.Unit = "1/s"
		}
		out = append(out, m)
	}
	return out
}

// perLayer is BENCHMARK.json's per_layer list: every traced run reports all
// of them, zero where the workload does not enter the layer.
var perLayer = []struct{ name, unit string }{
	{"sparql.parse_us", "us"},
	{"reformulate.rewrite_us", "us"},
	{"reformulate.branches", "count"},
	{"engine.compile_plan_us", "us"},
	{"engine.eval_us", "us"},
	{"engine.rows_out", "count"},
	{"engine.project_us", "us"},
	{"store.match_calls", "count"},
	{"store.examined_per_row", "ratio"},
	{"store.match_us", "us"},
	{"store.snapshot_ns", "ns"},
	{"store.copied_nodes", "count"},
	{"store.load_ms", "ms"},
	{"dict.encode_us", "us"},
	{"dict.decode_us", "us"},
	{"reason.saturate_ms", "ms"},
	{"reason.derived_per_triple", "ratio"},
	{"reason.insert_us", "us"},
	{"reason.delete_us", "us"},
	{"core.backward_us", "us"},
	{"persist.append_us", "us"},
	{"persist.fsync_us", "us"},
	{"persist.wal_bytes_per_triple", "B/triple"},
	{"persist.checkpoint_ms", "ms"},
	{"persist.checkpoints", "count"},
	{"persist.recover_ms", "ms"},
	{"webreason.query_overhead_us", "us"},
	{"webreason.mutate_wait_us", "us"},
	{"obs.agreement", "ratio"},
	{"trace.overhead", "ratio"},
}

// driverPerLayer renders a traced report's layers in declaration order,
// filling the layers the workload never entered with zero.
func driverPerLayer(rep *report) []metric {
	out := make([]metric, 0, len(perLayer))
	for _, d := range perLayer {
		m, ok := rep.get(d.name)
		if !ok {
			m = metric{Name: d.name, Unit: d.unit}
		}
		out = append(out, m)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func p50(l latencies) float64 { return quantile(l.sorted(), 0.5) }

// readLayers assembles the per-layer metrics of a read workload (and of
// sat.update's reader) from the traced pass. Layer timings are medians per
// round of the kind they are predicted to move: parse, rewrite and
// compile/plan per adhoc round, evaluation and matching per prepared round,
// projection and decoding per scan round.
func (t *tracer) readLayers(s *serving, untraced, traced *opStats) []metric {
	tb := t.tables()
	rows := countPerOp(tb, "prepared", "engine.rows_out")
	out := []metric{
		layerMetric(tb, "sparql.parse_us", "us", "adhoc", 1e3, "sparql.parse"),
		layerMetric(tb, "reformulate.rewrite_us", "us", "adhoc", 1e3, "reformulate.rewrite"),
		{Name: "reformulate.branches", Unit: "count", Value: countPerOp(tb, "adhoc", "reformulate.branches"), Stat: "per adhoc round"},
		layerMetric(tb, "engine.compile_plan_us", "us", "adhoc", 1e3, "engine.compile", "engine.plan", "engine.compile_plan"),
		layerMetric(tb, "engine.eval_us", "us", "prepared", 1e3, "engine.eval"),
		{Name: "engine.rows_out", Unit: "count", Value: rows, Stat: "per prepared round"},
		layerMetric(tb, "engine.project_us", "us", "scan", 1e3, "engine.project"),
		{Name: "store.match_calls", Unit: "count", Value: countPerOp(tb, "prepared", "store.match_calls"), Stat: "per prepared round"},
		{Name: "store.examined_per_row", Unit: "ratio", Value: ratio(countPerOp(tb, "prepared", "store.triples_examined"), rows), Stat: "triples examined / row returned, prepared rounds"},
		layerMetric(tb, "store.match_us", "us", "prepared", 1e3, "store.match"),
		{Name: "store.load_ms", Unit: "ms", Value: float64(s.loadTime) / 1e6, Stat: "KB.LoadGraph in set-up"},
		layerMetric(tb, "dict.decode_us", "us", "scan", 1e3, "dict.decode"),
		layerMetric(tb, "webreason.query_overhead_us", "us", "prepared", 1e3, "webreason.query"),
		{Name: "obs.agreement", Unit: "ratio", Value: t.obsAgreement(s), Stat: "registry median / outside-timed median, prepared queries"},
		{Name: "trace.overhead", Unit: "ratio", Value: ratio(p50(traced.prepared), p50(untraced.prepared)), N: len(traced.prepared), Stat: "traced / untraced prepared round p50"},
	}
	if s.strat.Name() == "saturation" {
		out = append(out, metric{Name: "reason.saturate_ms", Unit: "ms", Value: float64(s.buildTime) / 1e6, Stat: "NewSaturation in set-up"})
	}
	return out
}

// updateLayers adds the write path's layers to the reader's.
func (t *tracer) updateLayers(s *serving, untraced, traced *opStats) []metric {
	tb := t.tables()
	perTriple := func(m metric) metric {
		m.Value /= batchTriples
		m.Stat += ", per triple"
		return m
	}
	out := t.readLayers(s, untraced, traced)
	return append(out,
		layerMetric(tb, "dict.encode_us", "us", "insert", 1e3, "dict.encode"),
		layerMetric(tb, "persist.append_us", "us", "insert", 1e3, "persist.append"),
		layerMetric(tb, "persist.fsync_us", "us", "insert.durable", 1e3, "persist.fsync"),
		metric{Name: "persist.wal_bytes_per_triple", Unit: "B/triple", Value: ratio(countPerOp(tb, "insert", "persist.wal_bytes"), countPerOp(tb, "insert", "triples")), Stat: "insert batches"},
		layerMetric(tb, "persist.checkpoint_ms", "ms", "checkpoint", 1e6, "persist.checkpoint"),
		perTriple(layerMetric(tb, "reason.insert_us", "us", "insert", 1e3, "reason.insert")),
		perTriple(layerMetric(tb, "reason.delete_us", "us", "delete", 1e3, "reason.delete")),
		layerMetric(tb, "store.snapshot_ns", "ns", "insert", 1, "store.snapshot"),
		metric{Name: "store.copied_nodes", Unit: "count", Value: countPerOp(tb, "insert", "store.copied_nodes"), Stat: "per insert batch"},
		layerMetric(tb, "webreason.mutate_wait_us", "us", "insert.durable", 1e3, "webreason.mutate"),
	)
}

// fig3Layers are the per-layer metrics of fig3.batch's traced cycles.
func fig3Layers(t *tracer, f *fig3, untraced, traced []cycleTimes) []metric {
	tb := t.tables()
	work := func(cs []cycleTimes) float64 {
		vs := make([]float64, len(cs))
		for i, c := range cs {
			vs[i] = float64(c.work)
		}
		return medianFloat(vs)
	}
	last := traced[len(traced)-1]
	perTriple := func(name, spanName string) metric {
		m := layerMetric(tb, name, "us", "cycle", 1e3, spanName)
		m.Value /= instanceUpdates
		m.Stat += ", per instance triple"
		return m
	}
	return []metric{
		layerMetric(tb, "reformulate.rewrite_us", "us", "cycle", 1e3, "reformulate.rewrite"),
		{Name: "reformulate.branches", Unit: "count", Value: countPerOp(tb, "cycle", "reformulate.branches"), Stat: "over the 14 queries"},
		{Name: "store.load_ms", Unit: "ms", Value: float64(f.load) / 1e6, Stat: "KB.LoadGraph in set-up"},
		layerMetric(tb, "reason.saturate_ms", "ms", "cycle", 1e6, "reason.saturate"),
		{Name: "reason.derived_per_triple", Unit: "ratio", Value: ratio(float64(last.derived), float64(last.base)), Stat: "derived / asserted"},
		perTriple("reason.insert_us", "reason.insert"),
		perTriple("reason.delete_us", "reason.delete"),
		layerMetric(tb, "core.backward_us", "us", "cycle", 1e3, "core.backward.answer"),
		{Name: "trace.overhead", Unit: "ratio", Value: ratio(work(traced), work(untraced)), N: len(traced), Stat: "traced / untraced cycle work"},
	}
}

// obsAgreement cross-checks the program's own telemetry: the median of the
// server's query-latency histogram for prepared queries, as an operator reads
// it from WritePrometheus, over the median of the facade spans the traced
// pass timed from outside for the same calls.
func (t *tracer) obsAgreement(s *serving) float64 {
	var outside []int64
	for _, c := range t.clients {
		for _, sp := range c.spans {
			if sp.Name == "webreason.query" && c.kinds[sp.Op] == "prepared" {
				outside = append(outside, sp.End-sp.Start)
			}
		}
	}
	if len(outside) == 0 {
		return 0
	}
	sort.Slice(outside, func(i, j int) bool { return outside[i] < outside[j] })
	inside := histogramMedian(s.reg, t.obsBase, "webreason_query_seconds", `prepared="true"`)
	return ratio(inside.Seconds()*1e9, quantile(outside, 0.5))
}

// exposition is the registry's Prometheus text, as an operator scrapes it,
// line by line.
func exposition(reg *webreason.MetricsRegistry) []string {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil
	}
	return strings.Split(buf.String(), "\n")
}

// histogram is the cumulative bucket counts of one exposed series, by upper
// bound in seconds.
type histogram map[float64]uint64

// scrape reads one histogram series from the registry's Prometheus text:
// the buckets of family whose label set contains label.
func scrape(reg *webreason.MetricsRegistry, family, label string) histogram {
	h := histogram{}
	for _, line := range exposition(reg) {
		if !strings.HasPrefix(line, family+"_bucket{") || !strings.Contains(line, label) {
			continue
		}
		_, rest, ok := strings.Cut(line, `le="`)
		bound, value, ok2 := strings.Cut(rest, `"} `)
		if !ok || !ok2 {
			continue
		}
		le, err1 := strconv.ParseFloat(bound, 64) // "+Inf" parses
		n, err2 := strconv.ParseUint(value, 10, 64)
		if err1 == nil && err2 == nil {
			h[le] = n
		}
	}
	return h
}

// scrapeCounter reads one counter family's value from the registry's
// Prometheus text (0 when absent).
func scrapeCounter(reg *webreason.MetricsRegistry, family string) float64 {
	for _, line := range exposition(reg) {
		if strings.HasPrefix(line, family+"{") || strings.HasPrefix(line, family+" ") {
			v, _ := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			return v
		}
	}
	return 0
}

// histogramMedian is the median of the observations a series gained since
// base was scraped: the upper bound of the first bucket holding half of them.
func histogramMedian(reg *webreason.MetricsRegistry, base histogram, family, label string) time.Duration {
	now := scrape(reg, family, label)
	bounds := make([]float64, 0, len(now))
	for le := range now {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	// A bucket absent from base was empty then; cumulative counts make the
	// last smaller bound's count its value.
	baseAt := func(le float64) uint64 {
		var n uint64
		for b, c := range base {
			if b <= le && c > n {
				n = c
			}
		}
		return n
	}
	total := now[math.Inf(1)] - baseAt(math.Inf(1))
	for _, le := range bounds {
		if (now[le]-baseAt(le))*2 >= total && total > 0 {
			return time.Duration(le * float64(time.Second))
		}
	}
	return 0
}

// worseBy is how much worse b is than a, as a share of a, in d's direction.
// Which of two runs of the same code came first is arbitrary, so -agree holds
// the absolute value against the bound.
func worseBy(d decl, a, b float64) float64 {
	if d.higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// agreement runs the suite twice back to back on the same build and
// prints, per workload and end-to-end metric, both values, their relative
// difference and the bound. It reports whether every gated pair agrees.
func agreement(names []string, seed int64, sc scale) bool {
	ok := true
	for _, name := range names {
		var reps [2]*report
		for i := range reps {
			rep, err := runWorkload(name, seed, sc, false)
			if err != nil {
				fatal(err)
			}
			rep.print()
			ok = ok && rep.failed == 0
			reps[i] = rep
		}
		fmt.Printf("== agreement %s\n", name)
		for _, d := range named[name] {
			a, _ := reps[0].get(d.name)
			b, _ := reps[1].get(d.name)
			worse := worseBy(d, a.Value, b.Value)
			verdict := "reported"
			if d.bound > 0 {
				verdict = "ok"
				if math.Abs(worse) > d.bound {
					verdict = "OUTSIDE BOUND"
					ok = false
				}
			}
			fmt.Printf("%-20s %14.4f %14.4f %-6s diff %+7.2f%% bound %4.0f%%  %s\n",
				d.name, a.Value, b.Value, d.unit, (b.Value-a.Value)/a.Value*100, d.bound*100, verdict)
		}
	}
	return ok
}

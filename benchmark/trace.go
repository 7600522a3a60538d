package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced run is a separate pass whose numbers never feed the end-to-end
// metrics. For each operation it records a parent span around the facade
// call, then replays the same operation decomposed through the exported
// layer functions with a child span around each. Spans and counts stay in
// memory and are written out when the run ends.

// span is one timed interval. Parent is the index of the span that caused it
// within the same client (-1 for a root); spans of one operation share Op.
// A replayed child does not lie inside its parent's interval — it is the
// same work run again, layer by layer — so a span's self time is its
// duration minus the durations of its children, not minus the time they
// cover.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// spanLimit bounds the spans one client keeps; a client that reaches it goes
// on untraced, so a long window cannot exhaust memory or produce a trace file
// nobody can open.
const spanLimit = 120_000

// clientTrace is the span recorder of one client goroutine; it is not shared.
type clientTrace struct {
	t0    time.Time
	spans []span
	kinds []string // operation id → kind
	// replayFirst[op] says the operation's layer replay ran before its
	// facade call; perKind counts a kind's operations so the order alternates
	// within each kind.
	replayFirst []bool
	perKind     map[string]int
	counts      map[string]map[string]float64
	layers      *readReplay
	writes      *writeReplay
}

func (c *clientTrace) full() bool { return len(c.spans) >= spanLimit }

func (c *clientTrace) beginOp(kind string) int32 {
	c.kinds = append(c.kinds, kind)
	c.replayFirst = append(c.replayFirst, false)
	return int32(len(c.kinds) - 1)
}

// beginAlternating is beginOp for operations whose replay can run on either
// side of the facade call. Whichever runs second finds the operation's data
// in cache, which at microsecond scale is worth a factor of two or more; so
// the order alternates within each kind, and every table entry is the mean of
// the facade-first and the replay-first operations' medians.
func (c *clientTrace) beginAlternating(kind string) (op int32, replayFirst bool) {
	op = c.beginOp(kind)
	c.perKind[kind]++
	replayFirst = c.perKind[kind]%2 == 0
	c.replayFirst[op] = replayFirst
	return op, replayFirst
}

func (c *clientTrace) begin(op int32, name string, parent int32) int32 {
	c.spans = append(c.spans, span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(c.t0))})
	return int32(len(c.spans) - 1)
}

// restart moves a span's start to now: a parent opened before its replayed
// children ran begins when the facade call does.
func (c *clientTrace) restart(i int32) { c.spans[i].Start = int64(time.Since(c.t0)) }

func (c *clientTrace) end(i int32) time.Duration {
	c.spans[i].End = int64(time.Since(c.t0))
	return time.Duration(c.spans[i].End - c.spans[i].Start)
}

// add accumulates a count made at a layer boundary, per operation kind.
func (c *clientTrace) add(kind, counter string, v float64) {
	m := c.counts[kind]
	if m == nil {
		m = map[string]float64{}
		c.counts[kind] = m
	}
	m[counter] += v
}

// tracer owns the clients' recorders of one traced run.
type tracer struct {
	workload string
	t0       time.Time
	clients  []*clientTrace
	cleanup  []func()
	// obsBase is the server's query histogram as scraped when the traced
	// window began, so obs.agreement covers exactly the traced calls.
	obsBase histogram
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

func (t *tracer) newClient() *clientTrace {
	c := &clientTrace{t0: t.t0, counts: map[string]map[string]float64{}, perKind: map[string]int{}}
	t.clients = append(t.clients, c)
	return c
}

// reset drops what the warm-up recorded, so tables and counts cover the
// traced window only.
func (t *tracer) reset(s *serving) {
	for _, c := range t.clients {
		c.spans, c.kinds, c.replayFirst = c.spans[:0], c.kinds[:0], c.replayFirst[:0]
		c.counts = map[string]map[string]float64{}
	}
	t.obsBase = scrape(s.reg, "webreason_query_seconds", `prepared="true"`)
}

// kindTable is the "where the time goes" table of one operation kind.
type kindTable struct {
	Ops int `json:"ops"`
	// ParentUs is the median, over the kind's operations, of the time the
	// operation's facade spans took; SelfUs maps each span name to the median
	// self time it took per operation (medians, because one collection or
	// preemption inside a span would move a mean; they need not add up
	// exactly; where the replay order alternates, the mean of the two orders'
	// medians). Names under Outside are root spans that are not part of the
	// facade call (work the client or the applier does besides it).
	ParentUs float64            `json:"parent_us"`
	SelfUs   map[string]float64 `json:"self_us"`
	Outside  map[string]float64 `json:"outside_us"`
	// Coverage is the share of the facade time the replayed layer spans
	// account for: 1 − the facade span's self time ÷ ParentUs.
	Coverage float64            `json:"coverage"`
	Counts   map[string]float64 `json:"counts_per_op"`
	// opSelf[i][name] is the self time of name in the i-th operation, and
	// opSelf[i][facadeTotal] the operation's facade time; opOrder[i] is its
	// replay order.
	opSelf  []map[string]int64
	opOrder []bool
}

// facadeTotal keys an operation's whole facade time in opSelf.
const facadeTotal = "(facade)"

// facadeSpans are the parent spans: a root span with one of these names is
// an operation's facade call.
var facadeSpans = map[string]bool{"webreason.query": true, "webreason.mutate": true, "fig3.cycle": true,
	"persist.checkpoint": true, "persist.recover": true}

// tables folds every client's spans into one table per operation kind.
func (t *tracer) tables() map[string]*kindTable {
	out := map[string]*kindTable{}
	for _, c := range t.clients {
		children := make([]int64, len(c.spans))
		for _, s := range c.spans {
			if s.Parent >= 0 {
				children[s.Parent] += s.End - s.Start
			}
		}
		ops := map[int32]map[string]int64{}
		for i, s := range c.spans {
			self := ops[s.Op]
			if self == nil {
				self = map[string]int64{}
				ops[s.Op] = self
			}
			self[s.Name] += s.End - s.Start - children[i]
			if s.Parent < 0 && facadeSpans[s.Name] {
				self[facadeTotal] += s.End - s.Start
			}
		}
		for op, self := range ops {
			kind := c.kinds[op]
			kt := out[kind]
			if kt == nil {
				kt = &kindTable{SelfUs: map[string]float64{}, Outside: map[string]float64{}, Counts: map[string]float64{}}
				out[kind] = kt
			}
			kt.Ops++
			kt.opSelf = append(kt.opSelf, self)
			kt.opOrder = append(kt.opOrder, c.replayFirst[op])
		}
		// Root spans that are not facade calls are work outside the call.
		for _, s := range c.spans {
			if s.Parent < 0 && !facadeSpans[s.Name] {
				out[c.kinds[s.Op]].Outside[s.Name] = 0
			}
		}
		for kind, m := range c.counts {
			if kt := out[kind]; kt != nil {
				for k, v := range m {
					kt.Counts[k] += v
				}
			}
		}
	}
	for kind, kt := range out {
		names := map[string]bool{}
		for _, self := range kt.opSelf {
			for name := range self {
				names[name] = true
			}
		}
		var facadeSelf float64
		for name := range names {
			v, _ := layerMedian(out, kind, 1e3, name)
			switch _, outside := kt.Outside[name]; {
			case name == facadeTotal:
				kt.ParentUs = v
			case outside:
				kt.Outside[name] = v
			default:
				kt.SelfUs[name] = v
				if facadeSpans[name] {
					facadeSelf += v
				}
			}
		}
		if kt.ParentUs > 0 {
			kt.Coverage = 1 - facadeSelf/kt.ParentUs
		}
		for k := range kt.Counts {
			kt.Counts[k] /= float64(kt.Ops)
		}
	}
	return out
}

// layerMedian is the median, over the operations of a kind, of the self time
// the named spans took in one operation, in the unit div scales to. Where the
// kind's replay order alternates it is the mean of the two orders' medians. It
// also returns the number of operations behind it.
func layerMedian(tables map[string]*kindTable, kind string, div float64, names ...string) (float64, int) {
	kt := tables[kind]
	if kt == nil {
		return 0, 0
	}
	var byOrder [2][]int64
	for i, self := range kt.opSelf {
		var sum int64
		found := false
		for _, name := range names {
			if v, ok := self[name]; ok {
				sum += v
				found = true
			}
		}
		if found {
			o := 0
			if kt.opOrder[i] {
				o = 1
			}
			byOrder[o] = append(byOrder[o], sum)
		}
	}
	var total float64
	groups, n := 0, 0
	for _, sums := range byOrder {
		if len(sums) > 0 {
			total += medianInt(sums)
			groups++
			n += len(sums)
		}
	}
	if groups == 0 {
		return 0, 0
	}
	return total / float64(groups) / div, n
}

func medianInt(vs []int64) float64 {
	s := append([]int64(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile(s, 0.5)
}

func countPerOp(tables map[string]*kindTable, kind, counter string) float64 {
	if kt := tables[kind]; kt != nil {
		return kt.Counts[counter]
	}
	return 0
}

// layerMetric builds a per-layer timing metric from layerMedian.
func layerMetric(tables map[string]*kindTable, name, unit, kind string, div float64, spans ...string) metric {
	v, n := layerMedian(tables, kind, div, spans...)
	return metric{Name: name, Unit: unit, Value: v, N: n, Stat: "median per " + kind + " operation"}
}

// traceFile is what a traced run writes to out/<workload>.trace.json.
type traceFile struct {
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Tables   map[string]*kindTable `json:"where_the_time_goes"`
	Layers   []traceMetric         `json:"per_layer"`
	Kinds    [][]string            `json:"operation_kinds"` // per client: operation id → kind
	Spans    [][]span              `json:"spans"`           // per client
}

type traceMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
	Stat  string  `json:"stat,omitempty"`
}

// write stores the spans, the per-kind tables and the per-layer metrics, adds
// the tables to the report, and releases what the traced pass opened.
func (t *tracer) write(rep *report) error {
	for _, f := range t.cleanup {
		f()
	}
	tables := t.tables()
	f := traceFile{Workload: t.workload, Seed: rep.seed, Tables: tables}
	for _, m := range rep.layers {
		f.Layers = append(f.Layers, traceMetric{m.Name, m.Unit, m.Value, m.N, m.Stat})
	}
	for _, c := range t.clients {
		f.Kinds = append(f.Kinds, c.kinds)
		f.Spans = append(f.Spans, c.spans)
	}
	kinds := make([]string, 0, len(tables))
	for k := range tables {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		rep.notes = append(rep.notes, tables[k].render(k)...)
	}
	path := filepath.Join(outDir, t.workload+".trace.json")
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	rep.notes = append(rep.notes, "trace written to "+filepath.Join("benchmark", path))
	return nil
}

// render prints one kind's table: self time per span and its share of the
// facade time.
func (kt *kindTable) render(kind string) []string {
	lines := []string{fmt.Sprintf("where the time goes — %s (%d operations, medians; facade %.2f us, layers cover %.0f%%)",
		kind, kt.Ops, kt.ParentUs, kt.Coverage*100)}
	row := func(m map[string]float64, note string) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return m[names[i]] > m[names[j]] })
		for _, n := range names {
			share := 0.0
			if kt.ParentUs > 0 {
				share = m[n] / kt.ParentUs * 100
			}
			lines = append(lines, fmt.Sprintf("    %-26s %12.2f us %6.1f%%%s", n, m[n], share, note))
		}
	}
	row(kt.SelfUs, "")
	row(kt.Outside, "  (outside the facade call)")
	return lines
}

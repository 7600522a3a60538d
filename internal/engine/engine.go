// Package engine evaluates BGP queries over a triple source: variable
// binding, greedy selectivity-based join ordering, and index nested-loop
// joins (merge-intersection joins where the source enumerates in ID order)
// over the store's pattern indexes. It is deliberately agnostic about
// where the triples come from — the saturated store, the original store
// (for reformulated queries) or a virtual backward-chaining view all
// implement Source — so the paper's three query-answering techniques differ
// only in the Source and the query they hand to the same evaluator.
//
// There is one evaluator. A query is compiled and planned into an immutable
// Plan, which any number of goroutines share; an execution draws its scratch
// (bindings, undo stack, dedup sets, merge buffers) from one pool and takes
// the Source as an argument. A prepared query keeps its Plan between
// executions and replaces it when Plan.For says so; an ad hoc query builds
// one, runs it once and drops it.
package engine

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Source is anything the engine can match triple patterns against. It may
// enumerate a matching triple more than once — backward chaining's source
// emits a triple once per way it is entailed — so a distinct execution over
// a plain Source always deduplicates; only a SortedSource promises a set.
type Source interface {
	// ForEachMatch enumerates triples matching pat (dict.None = wildcard),
	// possibly some more than once; iteration stops early when fn returns
	// false.
	ForEachMatch(pat store.Triple, fn func(store.Triple) bool)
	// Count returns the (possibly estimated) number of matches of pat; the
	// optimizer uses it for join ordering.
	Count(pat store.Triple) int
}

// static assertion: the store is a Source.
var _ Source = (*store.Store)(nil)

// slot is a compiled pattern position: a constant ID or a variable index.
type slot struct {
	isVar bool
	v     int
	id    dict.ID
}

type cpattern struct {
	s, p, o slot
	// original index in the query, reported in plans.
	idx int
}

// Compiled is a BGP compiled against a dictionary: variables numbered, and
// constant terms resolved to IDs.
type Compiled struct {
	// vars are the variable names in first-occurrence order; a variable's
	// number is its index (BGPs have a handful, so lookups scan).
	vars []string
	// patterns holds the compiled patterns in original BGP order, so
	// patterns[i].idx == i: a PlanStep.PatternIndex indexes patterns
	// directly.
	patterns []cpattern
	// impossible is set when some constant does not occur in the dictionary:
	// no triple can match, the result is empty.
	impossible bool
}

// Compile prepares the triple patterns for evaluation. Constant terms that
// are not in the dictionary make the query trivially empty (they cannot
// occur in any triple), which Compile records rather than treating as an
// error.
func Compile(patterns []rdf.Triple, d *dict.Dict) (*Compiled, error) {
	c := &Compiled{}
	mk := func(t rdf.Term) (slot, error) {
		if t.IsVar() {
			i := slices.Index(c.vars, t.Value)
			if i < 0 {
				i = len(c.vars)
				c.vars = append(c.vars, t.Value)
			}
			return slot{isVar: true, v: i}, nil
		}
		if t.IsZero() {
			return slot{}, fmt.Errorf("engine: zero term in pattern")
		}
		id, ok := d.Lookup(t)
		if !ok {
			c.impossible = true
			return slot{id: dict.None}, nil
		}
		return slot{id: id}, nil
	}
	for i, p := range patterns {
		s, err := mk(p.S)
		if err != nil {
			return nil, err
		}
		pr, err := mk(p.P)
		if err != nil {
			return nil, err
		}
		o, err := mk(p.O)
		if err != nil {
			return nil, err
		}
		c.patterns = append(c.patterns, cpattern{s: s, p: pr, o: o, idx: i})
	}
	if len(c.patterns) == 0 {
		return nil, fmt.Errorf("engine: empty BGP")
	}
	return c, nil
}

// Vars returns the variable names in first-occurrence order.
func (c *Compiled) Vars() []string { return c.vars }

// concrete returns the store pattern for cp under bindings b: constants and
// bound variables become IDs, unbound variables become wildcards.
func concrete(cp *cpattern, b []dict.ID) store.Triple {
	get := func(s slot) dict.ID {
		if !s.isVar {
			return s.id
		}
		return b[s.v]
	}
	return store.Triple{S: get(cp.s), P: get(cp.p), O: get(cp.o)}
}

// bind matches triple t against cp, extending b; it returns false (leaving
// b partially updated — callers restore from undo) when a repeated variable
// or constant mismatches.
func bind(cp *cpattern, t store.Triple, b []dict.ID, undo *[]int) bool {
	try := func(s slot, v dict.ID) bool {
		if !s.isVar {
			return s.id == v
		}
		if b[s.v] == dict.None {
			b[s.v] = v
			*undo = append(*undo, s.v)
			return true
		}
		return b[s.v] == v
	}
	return try(cp.s, t.S) && try(cp.p, t.P) && try(cp.o, t.O)
}

// PlanStep describes one step of a join plan (for -explain output).
type PlanStep struct {
	// PatternIndex is the position of the pattern in the original BGP.
	PatternIndex int
	// EstimatedCost is the optimizer's cardinality estimate when the step
	// was chosen.
	EstimatedCost int
}

// plan orders patterns greedily: repeatedly pick the cheapest pattern given
// the variables bound so far. The cost of a pattern is the source count
// with only constants bound, discounted for every position held by an
// already-bound variable (it will act as a constant at execution time).
// Each pattern's count is read from src once, up front; a round only
// applies the discounts.
func (c *Compiled) plan(src Source) []PlanStep {
	remaining := make([]counted, len(c.patterns))
	for i, cp := range c.patterns {
		constPat := store.Triple{}
		if !cp.s.isVar {
			constPat.S = cp.s.id
		}
		if !cp.p.isVar {
			constPat.P = cp.p.id
		}
		if !cp.o.isVar {
			constPat.O = cp.o.id
		}
		remaining[i] = counted{cp, src.Count(constPat)}
	}
	bound := make([]bool, len(c.vars))
	var steps []PlanStep
	for len(remaining) > 0 {
		best, bestCost := 0, -1
		for i := range remaining {
			cp, cost := &remaining[i].cp, remaining[i].count
			// A bound variable behaves like a constant; assume it divides
			// the candidate set substantially. (Checked per position rather
			// than via a []slot temporary: this loop is O(patterns²) per
			// query and must not allocate.)
			if cp.s.isVar && bound[cp.s.v] {
				cost /= 4
			}
			if cp.p.isVar && bound[cp.p.v] {
				cost /= 4
			}
			if cp.o.isVar && bound[cp.o.v] {
				cost /= 4
			}
			cost++
			if bestCost < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		chosen := remaining[best].cp
		remaining = append(remaining[:best], remaining[best+1:]...)
		if chosen.s.isVar {
			bound[chosen.s.v] = true
		}
		if chosen.p.isVar {
			bound[chosen.p.v] = true
		}
		if chosen.o.isVar {
			bound[chosen.o.v] = true
		}
		steps = append(steps, PlanStep{PatternIndex: chosen.idx, EstimatedCost: bestCost})
	}
	return steps
}

// counted is a pattern beside its source count with only constants bound.
type counted struct {
	cp    cpattern
	count int
}

// Plan returns the join order the engine would use against src.
func (c *Compiled) Plan(src Source) []PlanStep { return c.plan(src) }

// Result holds variable bindings produced by evaluation. Rows are aligned
// with Vars; dict.None marks an unbound position (does not occur for BGPs,
// where every selected variable is bound by the pattern).
type Result struct {
	Vars []string
	Rows [][]dict.ID
}

// Eval evaluates the compiled BGP against src, returning one row per match
// (bag semantics, as SPARQL evaluation defines): plan against src, execute
// once.
func (c *Compiled) Eval(src Source) *Result { return c.planOn(src, nil).exec(src, false) }

// Project returns a new result restricted to the named variables, in that
// order. Unknown variables yield dict.None columns (used for reformulation
// branches that fix a variable to a constant instead of binding it). When
// the projection is the identity (same variables, same order), the rows are
// shared with the receiver rather than copied.
func (r *Result) Project(vars []string) *Result {
	idx := make([]int, len(vars))
	identity := len(vars) == len(r.Vars)
	for i, v := range vars {
		idx[i] = -1
		for j, have := range r.Vars {
			if have == v {
				idx[i] = j
				break
			}
		}
		if idx[i] != i {
			identity = false
		}
	}
	out := &Result{Vars: append([]string(nil), vars...)}
	if identity {
		// Share the rows but copy the slice header, so in-place operations
		// on the projection (Sort) cannot reorder the receiver.
		out.Rows = append([][]dict.ID(nil), r.Rows...)
		return out
	}
	// Projected rows are carved out of one flat arena: a single allocation
	// for the whole result instead of one per row.
	w := len(vars)
	out.Rows = make([][]dict.ID, 0, len(r.Rows))
	arena := make([]dict.ID, 0, w*len(r.Rows))
	for _, row := range r.Rows {
		n := len(arena)
		arena = arena[: n+w : cap(arena)]
		nr := arena[n : n+w : n+w]
		for i, j := range idx {
			if j >= 0 {
				nr[i] = row[j]
			} else {
				nr[i] = dict.None
			}
		}
		out.Rows = append(out.Rows, nr)
	}
	return out
}

// rowSet is a width-specialized set of binding rows, the shared dedup
// machinery of Result.Distinct and the evaluator's fused distinct. Rows are keyed
// on binary values rather than formatted text: widths up to three use
// fixed-size ID arrays as comparable map keys (no per-row allocation at
// all); wider rows fall back to the raw little-endian bytes of the IDs as a
// string key (unambiguous, since all rows of one set have the same width,
// and costing one key allocation per distinct row). reset empties the set
// but keeps the allocated buckets, so a reused set is allocation-free at
// steady state.
type rowSet struct {
	w      int
	high   int // most rows ever held; see held
	seen1  map[dict.ID]struct{}
	seen2  map[[2]dict.ID]struct{}
	seen3  map[[3]dict.ID]struct{}
	seenN  map[string]struct{}
	keyBuf []byte
}

// newRowSet returns a set for rows of width w (w ≥ 1), sized for about hint
// rows.
func newRowSet(w, hint int) *rowSet {
	s := &rowSet{w: w}
	switch w {
	case 1:
		s.seen1 = make(map[dict.ID]struct{}, hint)
	case 2:
		s.seen2 = make(map[[2]dict.ID]struct{}, hint)
	case 3:
		s.seen3 = make(map[[3]dict.ID]struct{}, hint)
	default:
		s.seenN = make(map[string]struct{}, hint)
		s.keyBuf = make([]byte, 0, 4*w)
	}
	return s
}

// add inserts the row, reporting whether it was new.
func (s *rowSet) add(row []dict.ID) bool {
	switch s.w {
	case 1:
		if _, dup := s.seen1[row[0]]; dup {
			return false
		}
		s.seen1[row[0]] = struct{}{}
	case 2:
		k := [2]dict.ID{row[0], row[1]}
		if _, dup := s.seen2[k]; dup {
			return false
		}
		s.seen2[k] = struct{}{}
	case 3:
		k := [3]dict.ID{row[0], row[1], row[2]}
		if _, dup := s.seen3[k]; dup {
			return false
		}
		s.seen3[k] = struct{}{}
	default:
		buf := s.keyBuf[:0]
		for _, id := range row {
			buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		s.keyBuf = buf
		if _, dup := s.seenN[string(buf)]; dup {
			return false
		}
		s.seenN[string(buf)] = struct{}{}
	}
	return true
}

// held returns the most rows the set has ever held. A map keeps the buckets
// of its largest population, so this is what reset costs.
func (s *rowSet) held() int {
	n := len(s.seenN)
	switch s.w {
	case 1:
		n = len(s.seen1)
	case 2:
		n = len(s.seen2)
	case 3:
		n = len(s.seen3)
	}
	s.high = max(s.high, n)
	return s.high
}

// reset empties the set, retaining the buckets.
func (s *rowSet) reset() {
	switch s.w {
	case 1:
		clear(s.seen1)
	case 2:
		clear(s.seen2)
	case 3:
		clear(s.seen3)
	default:
		clear(s.seenN)
	}
}

// Distinct removes duplicate rows, preserving first-occurrence order; see
// rowSet for the key scheme.
func (r *Result) Distinct() *Result {
	out := &Result{Vars: r.Vars}
	if len(r.Vars) == 0 {
		if len(r.Rows) > 0 {
			out.Rows = r.Rows[:1]
		}
		return out
	}
	seen := newRowSet(len(r.Vars), len(r.Rows))
	for _, row := range r.Rows {
		if seen.add(row) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// Limit truncates the result to at most n rows (n <= 0 means no limit).
func (r *Result) Limit(n int) *Result {
	if n <= 0 || len(r.Rows) <= n {
		return r
	}
	return &Result{Vars: r.Vars, Rows: r.Rows[:n]}
}

// Sort orders rows lexicographically by ID. Evaluation emits rows in the
// order the join plan meets them, which the source's index layout and the
// greedy join order decide, so tests and reports sort first.
func (r *Result) Sort() *Result {
	sort.Slice(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i], r.Rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return r
}

// Decode resolves a result to terms through the dictionary.
func (r *Result) Decode(d *dict.Dict) [][]rdf.Term {
	out := make([][]rdf.Term, len(r.Rows))
	for i, row := range r.Rows {
		terms := make([]rdf.Term, len(row))
		for j, id := range row {
			if id != dict.None {
				terms[j], _ = d.Term(id)
			}
		}
		out[i] = terms
	}
	return out
}

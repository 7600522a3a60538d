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
// (bindings, undo stack, dedup set, merge buffers) from one pool and takes
// the Source as an argument. A prepared query keeps its Plan between
// executions and replaces it when Plan.For says so; an ad hoc query builds
// one, runs it once and drops it.
package engine

import (
	"fmt"
	"math/bits"
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

// cpattern is a compiled pattern: one alternative of the atom idx.
type cpattern struct {
	s, p, o slot
	// idx is the index of the pattern's atom in the query, reported in
	// plans.
	idx int
}

// Compiled is a BGP compiled against a dictionary: variables numbered, and
// constant terms resolved to IDs. Each atom of the BGP is one pattern, or,
// in a join of unions (NewJoinPlan), a union of alternative patterns.
type Compiled struct {
	// vars are the variable names in first-occurrence order; a variable's
	// number is its index (BGPs have a handful, so lookups scan).
	vars []string
	// patterns holds the compiled alternatives atom by atom, in original
	// order, each atom's a run of at least one: with one alternative per
	// atom patterns[i].idx == i, so a PlanStep.PatternIndex indexes
	// patterns directly.
	patterns []cpattern
	// impossible is set when every alternative of some atom holds a
	// constant that does not occur in the dictionary: no triple can match,
	// the result is empty. The atom keeps its first alternative, that
	// constant a wildcard. unresolved is set when any alternative held
	// one; the others of its atom are kept, and it is dropped.
	impossible, unresolved bool
}

// Compile prepares the triple patterns for evaluation. Constant terms that
// are not in the dictionary make the query trivially empty (they cannot
// occur in any triple), which Compile records rather than treating as an
// error.
func Compile(patterns []rdf.Triple, d *dict.Dict) (*Compiled, error) {
	return compile(patterns, nil, d)
}

// compile compiles patterns as the alternatives of atoms: patterns[k] is an
// alternative of atom atoms[k], atoms nil making pattern k atom k. An
// alternative with a constant the dictionary does not know is dropped, the
// atom kept while it has another (see Compiled.impossible).
func compile(patterns []rdf.Triple, atoms []int, d *dict.Dict) (*Compiled, error) {
	if err := checkAtoms(patterns, atoms); err != nil {
		return nil, err
	}
	c := &Compiled{}
	known := true
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
			known = false
			return slot{id: dict.None}, nil
		}
		return slot{id: id}, nil
	}
	for k, p := range patterns {
		known = true
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
		i := k
		if atoms != nil {
			i = atoms[k]
		}
		if !known {
			c.unresolved = true
			last := k+1 == len(patterns) || atoms == nil || atoms[k+1] != i
			kept := len(c.patterns) > 0 && c.patterns[len(c.patterns)-1].idx == i
			if !last || kept {
				continue
			}
			c.impossible = true
		}
		c.patterns = append(c.patterns, cpattern{s: s, p: pr, o: o, idx: i})
	}
	if len(c.patterns) == 0 {
		return nil, fmt.Errorf("engine: empty BGP")
	}
	return c, nil
}

// checkAtoms checks the atom numbering of compile's patterns: atoms ascend
// from 0 one at a time, one per pattern, and a variable that some but not
// all alternatives of an atom hold occurs in no other atom — a step over
// the atom binds it on some paths only, so no later step may read it.
func checkAtoms(patterns []rdf.Triple, atoms []int) error {
	if atoms == nil {
		return nil
	}
	if len(atoms) != len(patterns) {
		return fmt.Errorf("engine: %d atom numbers for %d patterns", len(atoms), len(patterns))
	}
	prev := -1
	for _, i := range atoms {
		if i < 0 || i != prev && i != prev+1 {
			return fmt.Errorf("engine: atom number %d after %d", i, prev)
		}
		prev = i
	}
	holds := func(p *rdf.Triple, v string) bool {
		return p.S.IsVar() && p.S.Value == v || p.P.IsVar() && p.P.Value == v || p.O.IsVar() && p.O.Value == v
	}
	for lo, hi := 0, 1; lo < len(patterns); lo, hi = hi, hi+1 {
		for hi < len(patterns) && atoms[hi] == atoms[lo] {
			hi++
		}
		for k := lo; hi-lo > 1 && k < hi; k++ {
			for _, t := range [3]*rdf.Term{&patterns[k].S, &patterns[k].P, &patterns[k].O} {
				every := t.IsVar()
				for j := lo; every && j < hi; j++ {
					every = holds(&patterns[j], t.Value)
				}
				for j := 0; t.IsVar() && !every && j < len(patterns); j++ {
					if (j < lo || j >= hi) && holds(&patterns[j], t.Value) {
						return fmt.Errorf("engine: ?%s is in some alternatives of atom %d and in another atom", t.Value, atoms[k])
					}
				}
			}
		}
	}
	return nil
}

// atom returns the alternatives of atom i, c.patterns[lo:hi].
func (c *Compiled) atom(i int) []cpattern {
	lo, hi := c.span(i)
	return c.patterns[lo:hi]
}

// span returns the run of c.patterns that holds the alternatives of atom i.
// Each atom before it has at least one, so the run starts at i or later.
func (c *Compiled) span(i int) (lo, hi int) {
	lo = i
	for c.patterns[lo].idx != i {
		lo++
	}
	hi = lo + 1
	for hi < len(c.patterns) && c.patterns[hi].idx == i {
		hi++
	}
	return lo, hi
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

// plan orders the atoms greedily: repeatedly pick the cheapest atom given
// the variables bound so far. The cost of an atom is the sum of its
// alternatives' source counts with only constants bound, discounted for
// every position of its first alternative held by an already-bound variable
// that every alternative holds (it will act as a constant at execution
// time). Each alternative's count is read from src once, up front; a round
// only applies the discounts. plan also returns the largest count of an
// alternative of the first atom, the matches it can produce, and, when some
// atom has several alternatives, the count of each, by index in c.patterns.
func (c *Compiled) plan(src Source) (steps []PlanStep, first int, counts []int) {
	remaining := make([]counted, 0, c.patterns[len(c.patterns)-1].idx+1) // one per atom
	if len(c.patterns) > cap(remaining) { // some atom has several alternatives
		counts = make([]int, len(c.patterns))
	}
	for lo := 0; lo < len(c.patterns); {
		atom := c.atom(c.patterns[lo].idx)
		at := counted{key: atom[0]}
		for k, cp := range atom {
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
			n := src.Count(constPat)
			at.count += n
			at.most = max(at.most, n)
			if counts != nil {
				counts[lo+k] = n
			}
		}
		lo += len(atom)
		if len(atom) > 1 {
			for _, s := range []*slot{&at.key.s, &at.key.p, &at.key.o} {
				if s.isVar && !allHold(atom, s.v) {
					*s = slot{}
				}
			}
		}
		remaining = append(remaining, at)
	}
	bound := make([]bool, len(c.vars))
	first = -1
	for len(remaining) > 0 {
		best, bestCost := 0, -1
		for i := range remaining {
			cp, cost := &remaining[i].key, remaining[i].count
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
		chosen := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		if first < 0 {
			first = chosen.most
		}
		for _, cp := range c.atom(chosen.key.idx) {
			if cp.s.isVar {
				bound[cp.s.v] = true
			}
			if cp.p.isVar {
				bound[cp.p.v] = true
			}
			if cp.o.isVar {
				bound[cp.o.v] = true
			}
		}
		steps = append(steps, PlanStep{PatternIndex: chosen.key.idx, EstimatedCost: bestCost})
	}
	return steps, first, counts
}

// allHold reports whether every alternative of atom holds variable v.
func allHold(atom []cpattern, v int) bool {
	for i := range atom {
		if !atom[i].holds(v) {
			return false
		}
	}
	return true
}

// holds reports whether variable v is in cp.
func (cp *cpattern) holds(v int) bool {
	return cp.s.isVar && cp.s.v == v || cp.p.isVar && cp.p.v == v || cp.o.isVar && cp.o.v == v
}

// counted is an atom before the planner: its key — its first alternative,
// read as a constant where it holds a variable some other alternative
// lacks — and the sum and the largest of its alternatives' source counts
// with only constants bound.
type counted struct {
	key         cpattern
	count, most int
}

// Plan returns the join order the engine would use against src.
func (c *Compiled) Plan(src Source) []PlanStep {
	steps, _, _ := c.plan(src)
	return steps
}

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

// rowSet is the set of rows a distinct execution has admitted, the dedup
// machinery of the evaluator's fused distinct and of Result.Distinct. It
// holds no row of its own: the admitted rows are the result's, and add is
// handed them, in admission order, with the row to test.
//
// One-column rows are marked in bits, a bitset indexed by the row's ID: an
// add is one test-and-set. The set is clear between executions — release
// unmarks the result's rows, so clearing costs what the execution admitted,
// not what the largest answer ever marked — and it grows to the largest ID
// it has met. Wider rows go in slots, an open-addressing table of row
// indices (k+1 for rows[k], 0 empty) probed linearly from the row's hash: an
// add hashes the row once and compares it with the admitted rows its probe
// meets. The table's length, a power of two, is set per execution by start
// and doubled at ¾ load by re-inserting the admitted rows, within the
// capacity a pooled set keeps between executions where that suffices. No
// width allocates per row.
type rowSet struct {
	w     int
	bits  []uint64
	slots []uint32
}

// start readies the set for rows of width w (w ≥ 1), about hint of them: for
// a width past one, slots becomes a cleared table of the next power of two
// at or above 2×hint (16 at least).
func (s *rowSet) start(w, hint int) {
	s.w = w
	if w > 1 {
		n := 16
		for n < 2*hint {
			n <<= 1
		}
		s.resize(n)
	}
}

// resize makes slots n cleared slots, n a power of two, reallocating only
// when its capacity is short.
func (s *rowSet) resize(n int) {
	if cap(s.slots) < n {
		s.slots = make([]uint32, n)
	}
	s.slots = s.slots[:n]
	clear(s.slots)
}

// add inserts row, reporting whether it was new; rows are the rows the set
// has admitted so far, in order, and a new row is the next of them.
func (s *rowSet) add(row []dict.ID, rows [][]dict.ID) bool {
	if s.w == 1 {
		id := row[0]
		i := int(id >> 6)
		if i >= len(s.bits) {
			nb := make([]uint64, max(i+1, 2*len(s.bits)))
			copy(nb, s.bits)
			s.bits = nb
		}
		m := uint64(1) << (id & 63)
		if s.bits[i]&m != 0 {
			return false
		}
		s.bits[i] |= m
		return true
	}
	if 4*(len(rows)+1) > 3*len(s.slots) {
		s.resize(2 * len(s.slots))
		for k, r := range rows {
			s.slots[s.probe(r, nil)] = uint32(k + 1)
		}
	}
	i := s.probe(row, rows)
	if s.slots[i] != 0 {
		return false
	}
	s.slots[i] = uint32(len(rows) + 1)
	return true
}

// probe returns the slot of row: the one holding an equal row of rows, or
// the empty slot where row goes. With rows nil it skips the comparisons —
// re-insertion, where every row is known to be new. The slot is read from
// the top bits of a multiplicative hash.
func (s *rowSet) probe(row []dict.ID, rows [][]dict.ID) uint64 {
	h := uint64(0)
	for _, id := range row {
		h = (h ^ uint64(id)) * 0x9e3779b97f4a7c15
	}
	mask := uint64(len(s.slots) - 1)
	for i := h >> (64 - bits.TrailingZeros64(mask+1)); ; i = (i + 1) & mask {
		k := s.slots[i]
		if k == 0 || rows != nil && slices.Equal(rows[k-1], row) {
			return i
		}
	}
}

// release empties a one-column set of rows, the rows the execution admitted.
// A wider set needs nothing: start clears its table.
func (s *rowSet) release(rows [][]dict.ID) {
	if s.w == 1 {
		for _, r := range rows {
			s.bits[r[0]>>6] &^= 1 << (r[0] & 63)
		}
	}
}

// Distinct removes duplicate rows, preserving first-occurrence order, with
// the evaluator's dedup set (rowSet), drawn from its scratch pool.
func (r *Result) Distinct() *Result {
	out := &Result{Vars: r.Vars}
	if len(r.Vars) == 0 {
		if len(r.Rows) > 0 {
			out.Rows = r.Rows[:1]
		}
		return out
	}
	x := scratchPool.Get().(*scratch)
	x.set.start(len(r.Vars), len(r.Rows))
	for _, row := range r.Rows {
		if x.set.add(row, out.Rows) {
			out.Rows = append(out.Rows, row)
		}
	}
	x.set.release(out.Rows)
	scratchPool.Put(x)
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

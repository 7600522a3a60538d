package engine

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/store"
)

// SortedSource is a Source that can additionally enumerate the free position
// of a two-constant pattern in ascending ID order. The store and its
// snapshots implement it via their sorted postings leaves; reformulation
// evaluates against a snapshot of G with its schema closed. Backward
// chaining's source unions a pattern's matches with those of its one-step
// rewritings, several leaves that no one slice holds in order, and does not
// implement it; plans over it simply have no merge-join steps.
//
// A SortedSource is a set: ForEachMatch enumerates each matching triple at
// most once (and SortedIDs holds no ID twice). A plan built for one relies on
// it: distinct triples at each join step extend the bindings differently, so
// its executions never produce the same full binding vector twice. A distinct
// execution takes one match of an existential step (see pstep), so it never
// produces the same binding of the other variables twice either, and a
// projection that keeps every variable of the BGP but those existential
// steps bind needs no dedup set. A step over several alternatives breaks
// the first argument: two alternatives may match the same binding.
type SortedSource interface {
	Source
	// SortedIDs returns, ascending, the IDs matching the single wildcard
	// position of pat (exactly two positions bound). ok=false means no
	// matches. The slice is read-only and valid until the source is mutated.
	SortedIDs(pat store.Triple) ([]dict.ID, bool)
}

var _ SortedSource = (*store.Store)(nil)

// pstep is one executable step of a plan: either an index nested-loop step
// over one atom (merge == nil), or a merge-intersection group — several
// one-pattern atoms that each constrain the same single unbound variable
// with every other position constant or already bound, evaluated as a k-way
// sorted-list intersection instead of scan-and-probe.
//
// A nested-loop step matches its atom's pattern cp or, for an atom of
// several alternatives in a join of unions (NewJoinPlan), each of alts in
// turn; an atom of several never joins a merge group. The step is
// existential (exists) when every variable any alternative binds is left out
// of the projection and occurs in no other atom: no later step and no row
// reads which match bound them, so a distinct execution stops at the step's
// first match, of whichever alternative. Bag executions take every match.
type pstep struct {
	cp       cpattern
	alts     []cpattern
	merge    []cpattern
	mergeVar int
	exists   bool
}

// Plan is a BGP compiled against a dictionary and planned against a source's
// statistics: compiled patterns, join order, the step table with its merge
// groups, and the projection map. It is immutable once built, so any number
// of goroutines execute one Plan at the same time; everything an execution
// writes lives in a scratch drawn from the package's pool, and the source is
// an argument of Exec, not part of the plan. What can go stale — the join
// order, a constant the dictionary did not know — is replaced, never
// patched: For returns the plan to run against a given source.
//
//webreason:frozen
type Plan struct {
	// patterns, atoms, d and version are what a recompilation needs, kept
	// only while c.unresolved (a resolved plan never recompiles, so it does
	// not pin the term-level query); version is the dictionary version c
	// was compiled at.
	patterns []rdf.Triple
	atoms    []int
	d        *dict.Dict
	version  uint64
	c        *Compiled
	// order is the greedy join order, steps the same order with merge groups
	// fused; sorted records that the steps were built for a SortedSource
	// (only then can they hold merge groups), size the source's total size
	// the optimizer saw.
	order  []PlanStep
	steps  []pstep
	sorted bool
	size   int
	// proj is the projection Exec deduplicates over, projIdx its column map
	// (-1: a variable the pattern does not bind, emitted as dict.None).
	// unique records that Exec cannot meet a row twice: the plan was built
	// for a SortedSource, which enumerates each match once, every atom has
	// one alternative, and proj keeps every variable of the BGP that no
	// existential step binds, so Exec, and ExecUnion of this plan alone, run
	// without a dedup set. Alternatives overlap, so a plan with an atom of
	// several is never unique.
	proj    []string
	projIdx []int
	unique  bool
	// est is the number of matches of the first step's pattern, the count
	// the planner read for it (exact for a one-pattern plan), of its
	// largest alternative for an atom of several: the row hint of a plan
	// that has never run, alone or as a branch of ExecUnion.
	est int
	// rowHint is the number of rows the latest execution added, by
	// whichever goroutine finished last — all of them for a plan run alone,
	// those new to the union for a branch of ExecUnion — or -1 before the
	// first: it sizes the next result's row table, arena and dedup set. A
	// hint only — any value is correct.
	rowHint atomic.Int64
}

// replanDrift is the size-drift factor that invalidates a join order: once
// the source holds more than replanDrift× (or fewer than 1/replanDrift×) the
// triples it was planned against, the optimizer's cardinality estimates are
// stale enough that the greedy order may be badly wrong, so the plan is
// recomputed against fresh statistics. Replanning is cheap (no
// recompilation), so the factor errs small.
const replanDrift = 2

// PlanStats counts plan lifecycle events across the process: compilations
// (NewJoinPlan, and NewPlan — one per prepared compile or recompile, per ad
// hoc query, and per plan of a reformulated union: one per instantiation
// its rewriting evaluates as a join of atom unions, one per branch
// otherwise) and statistics-only replans. The counters are package-level
// atomics so the paths that bump them pay one RMW and no plumbing; the
// server exposes them via its metrics registry.
var PlanStats struct {
	Compiled  atomic.Uint64
	Replanned atomic.Uint64
}

// NewPlan compiles patterns against d and plans them against src's current
// statistics; proj is the projection Exec deduplicates over. It is
// NewJoinPlan with each pattern an atom of its own.
//
//webreason:writer
func NewPlan(src Source, patterns []rdf.Triple, d *dict.Dict, proj []string) (*Plan, error) {
	return NewJoinPlan(src, patterns, nil, d, proj)
}

// NewJoinPlan compiles a join of atoms, each a union of alternative
// patterns, against d and plans it against src's current statistics; proj
// is the projection Exec deduplicates over. patterns[k] is an alternative of
// atom atoms[k]: the numbers ascend from 0 one at a time, and atoms nil
// makes each pattern an atom of its own. Every alternative of an atom must
// hold the variables any other atom holds; a variable only some of them
// hold is the atom's own. A plan's step over an atom matches each of its
// alternatives in turn (pstep), so the plan answers what the union of the
// BGPs that take one alternative of each atom answers.
//
// Structural errors (empty BGP, zero terms, a bad numbering) surface here;
// a constant missing from the dictionary is not an error — its alternative
// is dropped, the plan answers empty once an atom has none left, and For
// replaces it once the dictionary has grown, since the term may exist then.
// proj (and, for such a plan, patterns and atoms) is retained and must not
// be modified afterwards.
//
//webreason:writer
func NewJoinPlan(src Source, patterns []rdf.Triple, atoms []int, d *dict.Dict, proj []string) (*Plan, error) {
	v := d.Version() // read before compiling: growth in between recompiles again
	c, err := compile(patterns, atoms, d)
	if err != nil {
		return nil, err
	}
	PlanStats.Compiled.Add(1)
	pl := c.planOn(src, proj)
	if c.unresolved {
		pl.patterns, pl.atoms, pl.d, pl.version = patterns, atoms, d, v
	}
	return pl, nil
}

// planOn orders c's patterns against src's statistics and builds the step
// table and projection map.
//
//webreason:writer
func (c *Compiled) planOn(src Source, proj []string) *Plan {
	pl := &Plan{c: c, proj: proj, size: src.Count(store.Triple{})}
	var counts []int
	pl.order, pl.est, counts = c.plan(src)
	_, pl.sorted = src.(SortedSource)
	pl.projIdx = make([]int, len(proj))
	for i, v := range proj {
		pl.projIdx[i] = slices.Index(c.vars, v)
	}
	var covered bool
	pl.steps, covered = c.buildSteps(pl.order, pl.sorted, pl.projIdx, counts)
	pl.unique = pl.sorted && covered
	pl.rowHint.Store(-1)
	return pl
}

// For returns the plan to execute against src: pl itself while it is still
// good there — one O(1) Count in the steady state — otherwise a successor.
// A plan that met a constant the dictionary did not know is recompiled once
// the dictionary has grown past the version it was compiled at (IDs are
// append-only, so growth can change nothing about a plan whose constants all
// resolved, and such a plan never looks at the dictionary again). A plan
// whose source has drifted more than replanDrift× in size, or gained or lost
// sorted enumeration, is re-planned from the same compilation. Callers that
// share pl publish the successor so the work is done once.
func (pl *Plan) For(src Source) *Plan {
	if pl.c.unresolved && pl.d.Version() != pl.version {
		// Patterns that compiled once compile again (compile's errors are
		// structural), so there is no error to report.
		if np, err := NewJoinPlan(src, pl.patterns, pl.atoms, pl.d, pl.proj); err == nil {
			return np
		}
	}
	n := src.Count(store.Triple{})
	if _, sorted := src.(SortedSource); sorted == pl.sorted && n <= replanDrift*pl.size && replanDrift*n >= pl.size {
		return pl
	}
	PlanStats.Replanned.Add(1)
	return pl.replan(src, pl.proj)
}

// replan plans pl's compilation afresh against src, projected onto proj,
// keeping pl's row hint.
//
//webreason:writer
func (pl *Plan) replan(src Source, proj []string) *Plan {
	np := pl.c.planOn(src, proj)
	np.patterns, np.atoms, np.d, np.version = pl.patterns, pl.atoms, pl.d, pl.version
	np.rowHint.Store(pl.rowHint.Load())
	return np
}

// soleUnbound inspects cp under bound: if exactly one slot holds an unbound
// variable (occurring in that one slot only) it returns its index and true.
func soleUnbound(cp cpattern, bound []bool) (int, bool) {
	v, n := -1, 0
	for _, s := range [3]slot{cp.s, cp.p, cp.o} {
		if s.isVar && !bound[s.v] {
			n++
			v = s.v
		}
	}
	if n != 1 {
		return -1, false
	}
	return v, true
}

// buildSteps turns the planned atom order into executable steps, fusing
// runs of one-pattern atoms that each constrain the same fresh variable —
// with all other positions constant or bound — into merge-intersection
// groups. The regrouping is a valid reorder: a pulled-forward pattern binds
// only the shared variable, so evaluating it earlier can only shrink
// intermediate results. Grouping requires a sorted source; otherwise every
// step stays a nested-loop step. A nested-loop step is marked existential
// when every variable it binds is missing from projIdx and solitary, and an
// existential step over several alternatives tries them in descending order
// of counts (the planner's, by index in c.patterns): the one with the most
// matches is likeliest to be the first to match. covered reports whether
// every atom has one alternative and every variable is in projIdx or bound
// by an existential step.
func (c *Compiled) buildSteps(order []PlanStep, sorted bool, projIdx, counts []int) (steps []pstep, covered bool) {
	steps = make([]pstep, 0, len(order))
	covered = true
	bound := make([]bool, len(c.vars))
	used := make([]bool, len(order))
	for i, st := range order {
		if used[i] {
			continue
		}
		used[i] = true
		lo, hi := c.span(st.PatternIndex)
		alts := c.patterns[lo:hi]
		if sorted && len(alts) == 1 {
			cp := alts[0]
			if v, ok := soleUnbound(cp, bound); ok {
				group := []cpattern{cp}
				for j := i + 1; j < len(order); j++ {
					if used[j] {
						continue
					}
					other := c.atom(order[j].PatternIndex)
					if len(other) != 1 {
						continue
					}
					if v2, ok2 := soleUnbound(other[0], bound); ok2 && v2 == v {
						group = append(group, other[0])
						used[j] = true
					}
				}
				if len(group) >= 2 {
					steps = append(steps, pstep{merge: group, mergeVar: v})
					bound[v] = true
					covered = covered && slices.Contains(projIdx, v)
					continue
				}
			}
		}
		exists, projected := true, len(alts) == 1
		for _, cp := range alts {
			for _, s := range [3]slot{cp.s, cp.p, cp.o} {
				if s.isVar && !bound[s.v] {
					bound[s.v] = true
					inProj := slices.Contains(projIdx, s.v)
					exists = exists && !inProj && c.solitary(s.v, cp.idx)
					projected = projected && inProj
				}
			}
		}
		covered = covered && (exists && len(alts) == 1 || projected)
		switch {
		case len(alts) == 1:
			steps = append(steps, pstep{cp: alts[0], exists: exists})
		case exists:
			steps = append(steps, pstep{alts: byCount(alts, counts[lo:hi]), exists: exists})
		default:
			steps = append(steps, pstep{alts: alts})
		}
	}
	return steps, covered
}

// byCount returns a copy of alts in descending order of their counts, ties
// in their order.
func byCount(alts []cpattern, counts []int) []cpattern {
	out, n := slices.Clone(alts), slices.Clone(counts)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && n[j] > n[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
			n[j], n[j-1] = n[j-1], n[j]
		}
	}
	return out
}

// solitary reports whether variable v occurs in no atom but the one at
// index idx.
func (c *Compiled) solitary(v, idx int) bool {
	for i := range c.patterns {
		if c.patterns[i].idx != idx && c.patterns[i].holds(v) {
			return false
		}
	}
	return true
}

// Exec evaluates the plan against src projected onto its projection with
// duplicate rows removed, without materialising the unprojected matches.
// src must offer what the plan was built for (For(src) returned this plan);
// the result is independent of the plan and stays valid indefinitely.
// Duplicates are removed by a pooled dedup set (rowSet), unless the plan is
// unique — over a SortedSource, its projection keeping every variable but
// those existential steps bind: then no row can repeat (see SortedSource)
// and rows are appended as they are met. The result is sized by the rows the
// previous execution produced or, on a plan's first execution, by the
// planner's count of its first step. A steady-state execution allocates the
// result — header, row table, row arena — and nothing else, whatever the
// width of its rows.
//
//webreason:hotpath
func (pl *Plan) Exec(src Source) *Result { return pl.exec(src, true) }

// exec runs the plan as one execution on a pooled scratch: deduplicated over
// the projection (distinct), or one row per match over all variables (bag
// semantics, as SPARQL evaluation defines). It opens the execution and enters
// the plan once each; ExecUnion opens one execution and enters each of its
// plans in turn.
func (pl *Plan) exec(src Source, distinct bool) *Result {
	vars := pl.c.vars
	if distinct {
		vars = pl.proj
	}
	if pl.c.impossible {
		return &Result{Vars: vars}
	}
	hint := int(pl.rowHint.Load())
	if hint < 0 {
		hint = pl.est
	}
	x := scratchPool.Get().(*scratch)
	res := x.start(src, vars, distinct, distinct && !pl.unique, hint)
	x.run(pl, Fixed{})
	x.end()
	return res
}

// Fixed lists the projected columns a branch of a union emits as constants
// instead of from its bindings: column Cols[k] holds IDs[k]. Reformulation
// fixes a variable so when it instantiates a class or property position.
type Fixed struct {
	Cols []int
	IDs  []dict.ID
}

// ExecUnion evaluates plans as the branches of one union against src,
// projected onto proj with duplicate rows removed across all branches:
// branch i runs with the columns of fixed[i] set to their constants, and a
// row enters the result only if no earlier row, of any branch, equals it.
// A branch may itself be a join of atom unions (NewJoinPlan), standing for
// the branches that take one alternative of each atom. Every plan must
// have been built with projection proj and be what For(src) returns. The union is one execution — one pooled scratch, at most one
// dedup set, one row arena, one result. It takes the set unless it is a
// single plan that needs none alone (Plan.unique): branches overlap,
// whatever each proves alone, and a fixed column holds a constant in place
// of a variable the branch does not bind, which cannot make two rows equal.
// The result is sized by the rows each branch added the last time it ran,
// summed, plus, over the branches that have never run, the largest of the
// planner's counts of their first steps (of a first step's alternatives):
// branches overlap, so a sum of counts overshoots the union, while their
// maximum is exact for a union of one-pattern branches. A steady-state union allocates what Plan.Exec
// does, however many branches it has.
//
//webreason:hotpath
func ExecUnion(src Source, proj []string, plans []*Plan, fixed []Fixed) *Result {
	hint, first := 0, 0
	for _, pl := range plans {
		if h := int(pl.rowHint.Load()); h >= 0 {
			hint += h
		} else if !pl.c.impossible {
			first = max(first, pl.est)
		}
	}
	x := scratchPool.Get().(*scratch)
	res := x.start(src, proj, true, len(plans) != 1 || !plans[0].unique, hint+first)
	for i, pl := range plans {
		if !pl.c.impossible {
			x.run(pl, fixed[i])
		}
	}
	x.end()
	return res
}

// scratch is everything one execution writes: the binding vector, the undo
// stack, one match callback and one set of merge buffers per join depth, the
// dedup set and the row arena. It belongs to no plan — run points it at one
// plan after another for the length of an execution — so one pool serves
// every plan, every strategy and the ad hoc path alike, and a plan that the
// garbage collector finds unused loses nothing but warm buffers.
//
// Nothing but the dedup set's bits is cleared when an execution ends: a
// pooled scratch keeps pointing at its last plan, source and result until
// the next execution overwrites them or the collector empties the pool.
type scratch struct {
	pl    *Plan
	fixed Fixed
	src   Source
	ss    SortedSource // non-nil iff src supports sorted leaves

	b      []dict.ID
	undo   []int
	levels []level

	// projection + dedup state of a projected execution: the projected row
	// and the dedup set, in use when dedup. The set keeps its bitset and its
	// table's backing array from one execution to the next, whatever their
	// widths: end clears the bits an execution set, and start clears the
	// prefix of the table the next one uses.
	row   []dict.ID
	set   rowSet
	dedup bool

	res     *Result
	arena   []dict.ID
	w, hint int
	project bool
}

// level is the scratch of one join depth.
type level struct {
	// match is the ForEachMatch callback of a nested-loop step at this
	// depth, and matchAlt that of a step of several alternatives, which
	// binds cp, the alternative in turn, stops at the first match when
	// first, and records in found that it did. Both are allocated once per
	// scratch so the per-triple inner loop runs closure-allocation-free.
	match, matchAlt func(store.Triple) bool
	cp              *cpattern
	first, found    bool
	// intersection buffers of a merge step, per depth so nested merge
	// groups do not stomp each other.
	views       [][]dict.ID
	ibuf, ibuf2 []dict.ID
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// start opens one execution against src and returns its result, whose rows
// are vars: the row table and arena sized for hint rows — the caller's
// expectation, learned or estimated — and, when dedup, the dedup set started
// for the row width and hint. Rows are the plan's projection when project,
// its full binding vectors otherwise.
func (x *scratch) start(src Source, vars []string, project, dedup bool, hint int) *Result {
	res := &Result{Vars: vars}
	if hint > 0 {
		res.Rows = make([][]dict.ID, 0, hint)
	}
	x.src, x.res, x.arena, x.project, x.hint, x.w = src, res, nil, project, hint, len(vars)
	x.ss, _ = src.(SortedSource)
	x.dedup = dedup && x.w > 0
	if x.dedup {
		x.row = grown(x.row, x.w)
		x.set.start(x.w, hint)
	}
	return res
}

// end closes the execution in flight, releasing the dedup set's rows, and
// returns the scratch to the pool.
func (x *scratch) end() {
	if x.dedup {
		x.set.release(x.res.Rows)
	}
	scratchPool.Put(x)
}

// run evaluates one plan within the execution in flight, with the columns
// of fixed set to their constants, and records the rows it added as the
// plan's next row hint.
func (x *scratch) run(pl *Plan, fixed Fixed) {
	x.pl, x.fixed = pl, fixed
	x.b = grown(x.b, len(pl.c.vars))
	clear(x.b)
	x.undo = x.undo[:0]
	for d := len(x.levels); d < len(pl.steps); d++ {
		x.levels = append(x.levels, level{match: x.matcher(d), matchAlt: x.altMatcher(d)})
	}
	n := len(x.res.Rows)
	x.rec(0)
	if added := int64(len(x.res.Rows) - n); added != pl.rowHint.Load() {
		pl.rowHint.Store(added)
	}
}

// grown returns s with length n, reallocating only when it is too short.
func grown(s []dict.ID, n int) []dict.ID {
	if cap(s) < n {
		return make([]dict.ID, n)
	}
	return s[:n]
}

// matcher builds the callback of join depth depth: bind the matched triple,
// descend, undo. The step is read from the plan of the execution in flight;
// a projected execution of an existential step stops at its first match.
func (x *scratch) matcher(depth int) func(store.Triple) bool {
	return func(t store.Triple) bool {
		st := &x.pl.steps[depth]
		mark := len(x.undo)
		ok := bind(&st.cp, t, x.b, &x.undo)
		if ok {
			x.rec(depth + 1)
		}
		for _, v := range x.undo[mark:] {
			x.b[v] = dict.None
		}
		x.undo = x.undo[:mark]
		return !ok || !st.exists || !x.project
	}
}

// altMatcher builds the callback of a step of several alternatives at join
// depth depth: matcher's, for the alternative the level holds, recording
// the stop at a first match.
func (x *scratch) altMatcher(depth int) func(store.Triple) bool {
	return func(t store.Triple) bool {
		lv := &x.levels[depth]
		mark := len(x.undo)
		ok := bind(lv.cp, t, x.b, &x.undo)
		if ok {
			x.rec(depth + 1)
		}
		for _, v := range x.undo[mark:] {
			x.b[v] = dict.None
		}
		x.undo = x.undo[:mark]
		if ok && lv.first {
			lv.found = true
			return false
		}
		return true
	}
}

// rec descends one plan step; at the bottom it emits the current bindings.
// A step of several alternatives matches them in turn, and an existential
// one stops at the first that matches.
func (x *scratch) rec(depth int) {
	if depth == len(x.pl.steps) {
		x.emit()
		return
	}
	st := &x.pl.steps[depth]
	switch {
	case st.merge != nil:
		x.execMerge(st, depth)
	case st.alts != nil:
		x.execAlts(st, depth)
	default:
		x.src.ForEachMatch(concrete(&st.cp, x.b), x.levels[depth].match)
	}
}

// execAlts evaluates a step of several alternatives: each in turn, until
// the first match when the step stops there.
func (x *scratch) execAlts(st *pstep, depth int) {
	lv := &x.levels[depth]
	lv.first, lv.found = st.exists && x.project, false
	for i := range st.alts {
		lv.cp = &st.alts[i]
		x.src.ForEachMatch(concrete(lv.cp, x.b), lv.matchAlt)
		if lv.found {
			return
		}
	}
}

// execMerge evaluates a merge group: fetch the sorted leaf of each pattern
// (with the shared variable as the wildcard), intersect them smallest-first
// with galloping merges, and recurse once per surviving ID.
func (x *scratch) execMerge(st *pstep, depth int) {
	lv := &x.levels[depth]
	views := lv.views[:0]
	for i := range st.merge {
		ids, ok := x.ss.SortedIDs(concrete(&st.merge[i], x.b))
		if !ok {
			lv.views = views
			return
		}
		views = append(views, ids)
	}
	lv.views = views
	// Intersect ascending by size: insertion sort, k is tiny.
	for i := 1; i < len(views); i++ {
		for j := i; j > 0 && len(views[j]) < len(views[j-1]); j-- {
			views[j], views[j-1] = views[j-1], views[j]
		}
	}
	cur := views[0]
	buf, buf2 := lv.ibuf, lv.ibuf2
	for i := 1; i < len(views) && len(cur) > 0; i++ {
		buf = store.IntersectSorted(buf[:0], cur, views[i])
		cur = buf
		buf, buf2 = buf2, buf
	}
	lv.ibuf, lv.ibuf2 = buf, buf2
	v := st.mergeVar
	for _, id := range cur {
		x.b[v] = id
		x.rec(depth + 1)
	}
	x.b[v] = dict.None
}

// emit materialises the current bindings as a result row: the full binding
// vector in bag mode; otherwise the projected row, its fixed columns
// written, which with a dedup set enters the result only if the set has not
// met it, and without one is written straight into the result.
func (x *scratch) emit() {
	if !x.project {
		copy(x.newRow(), x.b)
		return
	}
	if x.w == 0 {
		if len(x.res.Rows) == 0 {
			x.res.Rows = append(x.res.Rows, nil)
		}
		return
	}
	row := x.row
	if !x.dedup {
		row = x.newRow()
	}
	for i, j := range x.pl.projIdx {
		if j >= 0 {
			row[i] = x.b[j]
		} else {
			row[i] = dict.None
		}
	}
	for k, c := range x.fixed.Cols {
		row[c] = x.fixed.IDs[k]
	}
	if x.dedup && x.set.add(row, x.res.Rows) {
		copy(x.newRow(), row)
	}
}

// newRow appends a fresh row of the result's width, carved out of the
// result arena, and returns it for the caller to fill. Chunks are sized by
// the execution's hint, so an execution that meets its hint fills exactly
// one chunk: one allocation per chunk instead of one per row, and full
// chunks stay referenced by the rows sliced from them.
func (x *scratch) newRow() []dict.ID {
	w := x.w
	if len(x.arena)+w > cap(x.arena) {
		x.arena = make([]dict.ID, 0, max(x.hint, 64)*w)
	}
	n := len(x.arena)
	x.arena = x.arena[: n+w : cap(x.arena)]
	row := x.arena[n : n+w : n+w]
	x.res.Rows = append(x.res.Rows, row)
	return row
}

// Prepared is the single-goroutine handle on the evaluator: one Plan, the
// Source it currently runs against, and the revalidation (Plan.For) before
// every evaluation. It reads the source live, so data updates are always
// visible; dictionary growth and size drift replace the plan as For
// describes. Strategies share a Plan between goroutines directly; this
// handle is what tests and the benchmark's layer replay drive. Not safe for
// concurrent use; results are independent of it and stay valid.
type Prepared struct {
	pl  *Plan
	src Source
}

// Prepare compiles and plans the BGP against src and d for repeated
// evaluation; see NewPlan for what is an error.
func Prepare(src Source, patterns []rdf.Triple, d *dict.Dict) (*Prepared, error) {
	pl, err := NewPlan(src, slices.Clone(patterns), d, nil)
	if err != nil {
		return nil, err
	}
	return &Prepared{pl: pl, src: src}, nil
}

// Rebind points the handle at a different source — typically the next
// snapshot of the same evolving dataset. The next evaluation revalidates the
// plan there.
func (p *Prepared) Rebind(src Source) { p.src = src }

// Plan returns the current greedy join order (before merge-group fusion),
// for explain-style output. The slice is shared; treat as read-only.
func (p *Prepared) Plan() []PlanStep {
	p.pl = p.pl.For(p.src)
	return p.pl.order
}

// Eval evaluates the BGP, returning one row per match over all variables
// (bag semantics, like Compiled.Eval).
func (p *Prepared) Eval() *Result {
	p.pl = p.pl.For(p.src)
	return p.pl.exec(p.src, false)
}

// EvalDistinct evaluates the BGP projected onto proj with duplicate rows
// removed — the fused equivalent of Eval().Project(proj).Distinct().
// Projection variables not bound by the pattern yield dict.None columns (as
// Project does). A projection other than the previous call's plans anew
// (the column map is part of the plan).
func (p *Prepared) EvalDistinct(proj []string) *Result {
	if !slices.Equal(proj, p.pl.proj) {
		p.pl = p.pl.replan(p.src, slices.Clone(proj))
	}
	p.pl = p.pl.For(p.src)
	return p.pl.Exec(p.src)
}

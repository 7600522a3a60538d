package engine

import (
	"slices"
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/store"
)

// SortedSource is a Source that can additionally enumerate the free position
// of a two-constant pattern in ascending ID order. The concrete store
// implements it via its sorted postings leaves; virtual sources (union views,
// backward-chaining views) generally cannot, and prepared queries over them
// simply skip the merge-join optimization.
type SortedSource interface {
	Source
	// SortedIDs returns, ascending, the IDs matching the single wildcard
	// position of pat (exactly two positions bound). ok=false means no
	// matches. The slice is read-only and valid until the source is mutated.
	SortedIDs(pat store.Triple) ([]dict.ID, bool)
}

var _ SortedSource = (*store.Store)(nil)

// pstep is one executable step of a prepared plan: either an index
// nested-loop step over one pattern (merge == nil), or a merge-intersection
// group — several patterns that each constrain the same single unbound
// variable with every other position constant or already bound, evaluated as
// a k-way sorted-list intersection instead of scan-and-probe.
type pstep struct {
	cp       cpattern
	merge    []cpattern
	mergeVar int
	// reusable intersection scratch, per step so nested merge groups do not
	// stomp each other's buffers.
	views       [][]dict.ID
	ibuf, ibuf2 []dict.ID
}

// Prepared is a BGP compiled and planned once and evaluated many times — the
// prepared-statement counterpart of EvalBGP. It caches the compiled patterns
// and the join plan: re-evaluation reuses the plan and every scratch buffer,
// so the steady-state cost per call is the join work plus the result rows
// and nothing else (zero planning allocations). Dictionary growth leaves a
// plan whose constants all resolved untouched (IDs are append-only); a plan
// holding a constant the dictionary did not know recompiles on the next
// evaluation after the dictionary grows, since the term may exist now.
//
// A Prepared is bound to one Source and one Dict (the source can be swapped
// with Rebind — the snapshot-serving path does this on every epoch). It
// reads the source live on every evaluation, so data updates are always
// visible; only the join order can go stale, and it is refreshed when the
// source size drifts more than replanDrift× from what the optimizer planned
// against. Not safe for concurrent use;
// evaluation results are independent of the Prepared and stay valid
// indefinitely.
type Prepared struct {
	src      Source
	ss       SortedSource // non-nil iff src supports sorted leaves
	d        *dict.Dict
	patterns []rdf.Triple

	version   uint64 // dictionary version c was compiled at; consulted only while c.impossible
	c         *Compiled
	steps     []pstep
	planSteps []PlanStep
	callbacks []func(store.Triple) bool
	// planSize is the source's total size when the plan was last computed;
	// the drift check compares against it on every refresh.
	planSize int

	// evaluation scratch, reused across calls
	b       []dict.ID
	undo    []int
	rowHint int

	// fused projection+distinct state for EvalDistinct
	proj    []string
	projIdx []int
	projRow []dict.ID
	seen    *rowSet

	// per-call state
	res      *Result
	arena    []dict.ID
	w        int
	distinct bool
}

// Prepare compiles and plans the BGP against src and d for repeated
// evaluation. Structural errors (empty BGP, zero terms) surface here; a
// constant missing from the dictionary is not an error — the query is empty
// until the term is coined, at which point the plan refreshes itself.
func Prepare(src Source, patterns []rdf.Triple, d *dict.Dict) (*Prepared, error) {
	p := &Prepared{src: src, d: d, patterns: slices.Clone(patterns)}
	if ss, ok := src.(SortedSource); ok {
		p.ss = ss
	}
	if err := p.refresh(); err != nil {
		return nil, err
	}
	return p, nil
}

// replanDrift is the size-drift factor that invalidates a cached join plan:
// once the source holds more than replanDrift× (or fewer than 1/replanDrift×)
// the triples it was planned against, the optimizer's cardinality estimates
// are stale enough that the greedy order may be badly wrong, so the plan is
// recomputed against fresh statistics. Replanning is cheap (no recompilation,
// no allocation churn beyond the step table), so the factor errs small.
const replanDrift = 2

// PlanStats counts prepared-plan lifecycle events across the process:
// full compilations, statistics-only replans, and source rebinds. The
// counters are package-level atomics so the hot paths pay one uncontended
// RMW and no plumbing; the server exposes them via its metrics registry.
var PlanStats struct {
	Compiled  atomic.Uint64
	Replanned atomic.Uint64
	Rebound   atomic.Uint64
}

// refresh revalidates the cached plan: one O(1) Count in the steady state.
// Dictionary IDs are append-only, so growth can change nothing about a plan
// whose constants all resolved, and such a plan never looks at the dictionary
// again; a plan compiled with an unknown constant recompiles once the
// dictionary has grown past the version it was compiled at, because the term
// may exist now. The join order is recomputed (statistics only) when the
// source size has drifted more than replanDrift× since it was planned.
func (p *Prepared) refresh() error {
	if p.c != nil && (!p.c.impossible || p.d.Version() == p.version) {
		if n := p.src.Count(store.Triple{}); n > replanDrift*p.planSize || replanDrift*n < p.planSize {
			p.replan()
		}
		return nil
	}
	v := p.d.Version() // read before compiling: growth in between recompiles again
	c, err := Compile(p.patterns, p.d)
	if err != nil {
		return err
	}
	PlanStats.Compiled.Add(1)
	p.c = c
	p.version = v
	p.replan()
	p.b = make([]dict.ID, len(c.vars))
	if p.proj != nil {
		p.setProjection(p.proj)
	}
	return nil
}

// replan recomputes the join order and step table against the source's
// current statistics, recording the size the optimizer saw.
func (p *Prepared) replan() {
	PlanStats.Replanned.Add(1)
	p.planSize = p.src.Count(store.Triple{})
	p.planSteps = p.c.plan(p.src)
	p.buildSteps()
}

// Rebind points the prepared query at a different source — typically the
// next snapshot of the same evolving dataset. The compiled patterns, join
// plan and all scratch buffers are kept; the next evaluation revalidates the
// plan against the new source's statistics via the usual drift check, so
// rebinding across small mutation batches costs one pointer swap and one
// O(1) Count. Rebinding to the already-bound source is a no-op. Rebinding
// across a sorted-capability change (SortedSource ⇄ plain Source) rebuilds
// the step table, since merge-intersection groups exist only for sorted
// sources.
func (p *Prepared) Rebind(src Source) {
	if src == p.src {
		return
	}
	PlanStats.Rebound.Add(1)
	hadSorted := p.ss != nil
	p.src = src
	p.ss, _ = src.(SortedSource)
	if p.c != nil && hadSorted != (p.ss != nil) {
		p.buildSteps()
	}
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

// buildSteps turns the planned pattern order into executable steps, fusing
// runs of patterns that each constrain the same fresh variable — with all
// other positions constant or bound — into merge-intersection groups. The
// regrouping is a valid reorder: a pulled-forward pattern binds only the
// shared variable, so evaluating it earlier can only shrink intermediate
// results. Grouping requires a SortedSource; otherwise every step stays a
// nested-loop step.
func (p *Prepared) buildSteps() {
	c := p.c
	ordered := make([]cpattern, len(p.planSteps))
	for i, st := range p.planSteps {
		ordered[i] = c.patterns[st.PatternIndex]
	}
	p.steps = p.steps[:0]
	bound := make([]bool, len(c.vars))
	used := make([]bool, len(ordered))
	for i, cp := range ordered {
		if used[i] {
			continue
		}
		used[i] = true
		if p.ss != nil {
			if v, ok := soleUnbound(cp, bound); ok {
				group := []cpattern{cp}
				for j := i + 1; j < len(ordered); j++ {
					if used[j] {
						continue
					}
					if v2, ok2 := soleUnbound(ordered[j], bound); ok2 && v2 == v {
						group = append(group, ordered[j])
						used[j] = true
					}
				}
				if len(group) >= 2 {
					p.steps = append(p.steps, pstep{merge: group, mergeVar: v})
					bound[v] = true
					continue
				}
			}
		}
		for _, s := range [3]slot{cp.s, cp.p, cp.o} {
			if s.isVar {
				bound[s.v] = true
			}
		}
		p.steps = append(p.steps, pstep{cp: cp})
	}
	// One persistent callback per step; the per-triple inner loop then runs
	// closure-allocation-free on every later evaluation too.
	p.callbacks = make([]func(store.Triple) bool, len(p.steps))
	for depth := range p.steps {
		cp := p.steps[depth].cp
		next := depth + 1
		p.callbacks[depth] = func(t store.Triple) bool {
			mark := len(p.undo)
			if bind(cp, t, p.b, &p.undo) {
				p.rec(next)
			}
			for _, v := range p.undo[mark:] {
				p.b[v] = dict.None
			}
			p.undo = p.undo[:mark]
			return true
		}
	}
}

// Vars returns the variable names of the BGP in first-occurrence order.
func (p *Prepared) Vars() []string { return p.c.vars }

// Plan returns the cached greedy join order (before merge-group fusion),
// for explain-style output. The slice is shared; treat as read-only.
func (p *Prepared) Plan() []PlanStep {
	p.refresh()
	return p.planSteps
}

// Eval evaluates the prepared BGP, returning one row per match over all
// variables (bag semantics, like Compiled.Eval).
//
//webreason:hotpath
func (p *Prepared) Eval() *Result {
	//lint:ignore hotpath recompile/replan is the cold revalidation branch; steady-state refresh is a version check plus one O(1) Count
	p.refresh()
	p.distinct = false
	p.w = len(p.c.vars)
	return p.run(p.c.vars)
}

// EvalDistinct evaluates the prepared BGP projected onto proj with
// duplicate rows removed — the fused equivalent of
// Eval().Project(proj).Distinct(), without materialising the intermediate
// results. Projection variables not bound by the pattern yield dict.None
// columns (as Project does). The dedup sets are retained between calls, so
// steady-state evaluation allocates only the result itself; projections
// wider than three columns fall back to string keys and additionally pay
// one key allocation per distinct row.
//
//webreason:hotpath
func (p *Prepared) EvalDistinct(proj []string) *Result {
	//lint:ignore hotpath recompile/replan is the cold revalidation branch; steady-state refresh is a version check plus one O(1) Count
	p.refresh()
	if !slices.Equal(proj, p.proj) {
		//lint:ignore hotpath projection change is a cold branch; steady-state calls reuse the cached projection
		p.setProjection(slices.Clone(proj))
	}
	p.distinct = true
	p.w = len(p.proj)
	return p.run(p.proj)
}

// setProjection computes the projection column map; proj must be owned by
// the Prepared (already cloned).
func (p *Prepared) setProjection(proj []string) {
	p.proj = proj
	if cap(p.projIdx) < len(proj) {
		p.projIdx = make([]int, len(proj))
		p.projRow = make([]dict.ID, len(proj))
	}
	p.projIdx = p.projIdx[:len(proj)]
	p.projRow = p.projRow[:len(proj)]
	for i, v := range proj {
		if j, ok := p.c.varIndex[v]; ok {
			p.projIdx[i] = j
		} else {
			p.projIdx[i] = -1
		}
	}
}

// run executes the prepared plan and collects rows of width p.w.
func (p *Prepared) run(vars []string) *Result {
	res := &Result{Vars: vars}
	if p.c.impossible {
		return res
	}
	if p.rowHint > 0 {
		res.Rows = make([][]dict.ID, 0, p.rowHint)
	}
	for i := range p.b {
		p.b[i] = dict.None
	}
	p.undo = p.undo[:0]
	p.res = res
	p.arena = nil
	if p.distinct {
		p.resetSeen()
	}
	p.rec(0)
	p.rowHint = len(res.Rows)
	p.res, p.arena = nil, nil
	return res
}

// rec descends one plan step; at the bottom it emits the current bindings.
func (p *Prepared) rec(depth int) {
	if depth == len(p.steps) {
		p.emit()
		return
	}
	st := &p.steps[depth]
	if st.merge != nil {
		p.execMerge(depth)
		return
	}
	p.src.ForEachMatch(concrete(st.cp, p.b), p.callbacks[depth])
}

// execMerge evaluates a merge group: fetch the sorted leaf of each pattern
// (with the shared variable as the wildcard), intersect them smallest-first
// with galloping merges, and recurse once per surviving ID.
func (p *Prepared) execMerge(depth int) {
	st := &p.steps[depth]
	views := st.views[:0]
	for _, cp := range st.merge {
		ids, ok := p.ss.SortedIDs(concrete(cp, p.b))
		if !ok {
			st.views = views
			return
		}
		views = append(views, ids)
	}
	st.views = views
	// Intersect ascending by size: insertion sort, k is tiny.
	for i := 1; i < len(views); i++ {
		for j := i; j > 0 && len(views[j]) < len(views[j-1]); j-- {
			views[j], views[j-1] = views[j-1], views[j]
		}
	}
	cur := views[0]
	buf, buf2 := st.ibuf, st.ibuf2
	for i := 1; i < len(views) && len(cur) > 0; i++ {
		buf = store.IntersectSorted(buf[:0], cur, views[i])
		cur = buf
		buf, buf2 = buf2, buf
	}
	st.ibuf, st.ibuf2 = buf, buf2
	v := st.mergeVar
	for _, id := range cur {
		p.b[v] = id
		p.rec(depth + 1)
	}
	p.b[v] = dict.None
}

// resetSeen readies the shared dedup set for the current width, keeping
// allocated buckets when the width is unchanged.
func (p *Prepared) resetSeen() {
	if p.w == 0 {
		return
	}
	if p.seen == nil || p.seen.w != p.w {
		p.seen = newRowSet(p.w, max(p.rowHint, 16))
		return
	}
	p.seen.reset()
}

// emit materialises the current bindings as a result row: the full binding
// vector in bag mode, or the projected row after passing the dedup set in
// distinct mode.
func (p *Prepared) emit() {
	if !p.distinct {
		p.emitRow(p.b)
		return
	}
	if p.w == 0 {
		if len(p.res.Rows) == 0 {
			p.res.Rows = append(p.res.Rows, nil)
		}
		return
	}
	row := p.projRow
	for i, j := range p.projIdx {
		if j >= 0 {
			row[i] = p.b[j]
		} else {
			row[i] = dict.None
		}
	}
	if p.seen.add(row) {
		p.emitRow(row)
	}
}

// emitRow copies src into the result arena as a fresh row. Rows are carved
// out of chunks sized by the previous call's row count, so a steady-state
// evaluation fills exactly one chunk.
func (p *Prepared) emitRow(src []dict.ID) {
	w := p.w
	if w == 0 {
		p.res.Rows = append(p.res.Rows, nil)
		return
	}
	if len(p.arena)+w > cap(p.arena) {
		rows := max(p.rowHint, 64)
		p.arena = make([]dict.ID, 0, rows*w)
	}
	n := len(p.arena)
	p.arena = p.arena[: n+w : cap(p.arena)]
	row := p.arena[n : n+w : n+w]
	copy(row, src)
	p.res.Rows = append(p.res.Rows, row)
}

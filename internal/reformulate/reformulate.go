// Package reformulate implements the paper's second query-answering
// technique: rewriting a BGP query q into a union of BGP queries qref such
// that evaluating qref against the original graph G yields exactly the
// answers of q against the saturation G∞ — q_ref(G) = q(G∞), Section II-B.
//
// The rules are those of the rewriting of [12] (Goasdoué, Manolescu,
// Roatiş, EDBT 2013) for the DB fragment of RDF with a closed schema:
//
//   - (s rdf:type C)  expands to (s rdf:type C') for every subclass C' ⊑ C,
//     to (s P ⋆) for every property P with domain C, and to (⋆ P s) for
//     every property P with range C (⋆ = fresh non-projected variable);
//   - (s P o) expands to (s P' o) for every subproperty P' ⊑ P;
//   - a variable in class position is instantiated against the finite set
//     of candidate classes (classes of the schema plus classes asserted in
//     G), and a variable in property position against the candidate
//     properties (properties of the schema, properties used in G, and
//     rdf:type) — sound and complete in the DB fragment because the RDFS
//     rules never invent new classes or properties.
//
// Step is the one copy of these rules: the rewriter applies it to each atom
// of the query, backward chaining (internal/core) to one pattern at a time
// during evaluation.
//
// [12] computes the union as a fixpoint: apply every rule to every atom of
// every branch until the union stops growing. The rewriter reaches the same
// union in two phases. It first instantiates the variables in property and
// class position; no rule puts a variable there, so this happens once, and
// gives the query and its instantiations. It then rewrites each atom of
// each of these alone, to the closure of Step over that atom, and the
// union is the product of the atoms' rewritings: a branch takes one
// rewriting of each atom. Each atom's rewritings get their own fresh
// variable, so a fresh variable occurs in one atom of a branch. Under
// Options.Minimize the product skips an atom when a rewriting of it holds
// a fresh variable and an atom chosen before it equals that rewriting but
// for the fresh variable: the branch without the atom is then the core of
// one branch and subsumes the others, so the branches minimisation would
// delete are never built.
//
// The union of an instantiation is then often exactly the product R'_1 × …
// × R'_k of the rewriting lists of the atoms it keeps: when the product took
// or skipped each atom whatever it chose before, and the union keeps every
// one of its branches whole (no two the same, none subsumed, none reduced to
// a smaller core). Such a run of branches is evaluated as the join of the
// atoms' unions, one plan whose step over an atom tries its rewritings in
// turn (engine.NewJoinPlan), instead of one plan per branch: JUCQ over the
// finest cover, the one-atom fragments (Bursztyn, Goasdoué & Manolescu,
// EDBT 2015). The branches are still built, rendered and counted; only
// Prepare reads the factorisation, and UCQ.Explain reports it.
//
// Schema-level triple patterns (rdfs:subClassOf etc.) are not rewritten:
// like [12], the schema component of the store is always kept closed, so
// direct evaluation is already complete for them.
//
// The rewriting and the minimisation run on an ID-level form of the query,
// the one the schema and the store speak (form.go): a branch is a list of
// [3]uint32 patterns whose constants are dictionary IDs (a query constant
// the dictionary does not know gets a number in a per-run table), whose
// variables are numbered, the query's first and the fresh ones after, and
// whose fixed bindings are a sorted (variable, constant) list. Branches
// deduplicate on the bytes of their sorted pattern list, fresh variables
// read as one, and the terms of a Branch are built once, for the branches
// the union keeps.
package reformulate

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/schema"
	"repro/internal/sparql"
)

// VocabularySource enumerates the property and class vocabulary of the data
// graph, used to instantiate variables in schema positions. *store.Store
// implements it.
type VocabularySource interface {
	// Predicates returns the distinct predicates used by triples in G.
	Predicates() []dict.ID
	// Objects returns the distinct objects of triples with predicate p.
	Objects(p dict.ID) []dict.ID
}

// Options tunes reformulation.
type Options struct {
	// MaxBranches caps the number of distinct branches the rewriter
	// builds; reformulation fails with ErrTooLarge beyond it. Under
	// Minimize those are the branches left once absorbed atoms are
	// skipped, before subsumption prunes any, so a union too large plain
	// may fit minimised. Zero means DefaultMaxBranches.
	MaxBranches int
	// Minimize reduces each union member to its core, dropping the atoms
	// the rest of the member implies, and prunes members subsumed by other
	// members before returning ([12]'s minimal reformulations; see
	// UCQ.Minimize). The rewriter then skips each atom another atom of the
	// branch absorbs, so it never builds the branches minimisation would
	// delete, and minimising makes rewriting cheaper as well as evaluation:
	// TestLUBMUnionSizes pins the plain and the minimised union of each
	// LUBM query, and the benchmark traces the minimised one's size as
	// reformulate.branches.
	Minimize bool
}

// DefaultMaxBranches bounds union growth; the paper notes reformulated
// queries can get syntactically large, and a runaway rewriting is a bug in
// the caller's schema, not something to silently chew memory on.
const DefaultMaxBranches = 65536

// ErrTooLarge is returned when the union exceeds Options.MaxBranches.
var ErrTooLarge = fmt.Errorf("reformulate: union exceeds branch limit")

// Branch is one BGP of the reformulated union. Fixed records variables the
// rewriting bound to constants (from schema-position instantiation): the
// evaluator must emit those constants in the corresponding result columns.
type Branch struct {
	Patterns []rdf.Triple
	Fixed    map[string]rdf.Term
}

// UCQ is a reformulated query: a union of conjunctive (BGP) queries, all
// sharing the original query's projection.
type UCQ struct {
	// Query is the original query.
	Query *sparql.Query
	// Branches are the union members; evaluating their union over G and
	// deduplicating yields q(G∞).
	Branches []Branch
	// VocabDependent reports that the rewriting instantiated a variable in
	// class or property position against the data graph's vocabulary. Such a
	// union can be invalidated by any data mutation (a predicate or class
	// newly used — or no longer used — by some triple changes the candidate
	// set); a union with VocabDependent false depends only on the schema
	// closure and the dictionary, so cached plans survive instance updates.
	VocabDependent bool
	// joins are the runs of Branches that Reformulate found to be the
	// product of their atoms' rewriting lists, ascending; Prepare compiles
	// each to one plan, and every other branch to a plan of its own. A
	// union built any other way has none.
	joins []join
}

// join is a run of a union's branches, Branches[lo:hi], that is exactly the
// product of its atoms' rewriting lists: patterns[k] is a rewriting of atom
// atoms[k] (engine.NewJoinPlan's form), and each branch takes one rewriting
// of each atom. Evaluated as the join of the atoms' unions it answers what
// the branches answer, and the branches share their fixed bindings.
type join struct {
	lo, hi   int
	patterns []rdf.Triple
	atoms    []int
}

// Size returns the number of union members, the paper's measure of
// reformulation blowup (TestLUBMUnionSizes pins it for the LUBM queries,
// and the benchmark traces it as reformulate.branches).
func (u *UCQ) Size() int { return len(u.Branches) }

// Explain says how Prepare evaluates the union: each run of branches that
// is a product as one join of its atoms' unions, given by the sizes of the
// atoms' rewriting lists ("one join of atom unions, 5 × 3 × 1"), and every
// other branch as a plan of its own ("one plan per branch").
func (u *UCQ) Explain() string {
	var parts []string
	rest := len(u.Branches)
	for _, j := range u.joins {
		sizes := make([]string, j.atoms[len(j.atoms)-1]+1)
		for i := range sizes {
			lo, _ := slices.BinarySearch(j.atoms, i)
			hi, _ := slices.BinarySearch(j.atoms, i+1)
			sizes[i] = strconv.Itoa(hi - lo)
		}
		parts = append(parts, "one join of atom unions, "+strings.Join(sizes, " × "))
		rest -= j.hi - j.lo
	}
	switch {
	case len(parts) == 0:
		return "one plan per branch"
	case rest > 0:
		parts = append(parts, fmt.Sprintf("one plan per branch for the other %d", rest))
	}
	return strings.Join(parts, "; ")
}

// String renders the reformulation as a SPARQL-ish union for display.
func (u *UCQ) String() string {
	var b strings.Builder
	proj := u.Query.Projection()
	b.WriteString("SELECT")
	for _, v := range proj {
		b.WriteString(" ?" + v)
	}
	b.WriteString(" WHERE {\n")
	for i, br := range u.Branches {
		if i > 0 {
			b.WriteString("  UNION\n")
		}
		b.WriteString("  {")
		for j, p := range br.Patterns {
			if j > 0 {
				b.WriteString(" .")
			}
			fmt.Fprintf(&b, " %s %s %s", p.S, p.P, p.O)
		}
		if len(br.Fixed) > 0 {
			vars := make([]string, 0, len(br.Fixed))
			for v := range br.Fixed {
				vars = append(vars, v)
			}
			sort.Strings(vars)
			for _, v := range vars {
				fmt.Fprintf(&b, " . BIND(%s AS ?%s)", br.Fixed[v], v)
			}
		}
		b.WriteString(" }\n")
	}
	b.WriteString("}")
	return b.String()
}

// rewriter carries the shared state of one reformulation run.
type rewriter struct {
	form
	sch *schema.Schema
	voc schema.Vocab
	src VocabularySource
	max int
	// query is the query's atoms in the ID-level form.
	query []pattern
	// seen holds the dedup key of every branch produced, from the second
	// on; out is the union in production order.
	seen map[string]struct{}
	out  []branch
	// fresh is the number of fresh variables coined so far.
	fresh uint32
	// The product of one instantiated query. alts holds the rewritings of
	// its atoms, atom i's in alts[lo[i]:lo[i+1]] with the atom itself
	// first; order lists the atoms in the order the product chooses them,
	// and pick the index in alts of each atom's choice, -1 for an atom the
	// choices before it absorb. fixed is the query's bindings. taken
	// records whether choose took atom i (1) or skipped it (2), 0 before it
	// first came to it, and mixed that it took some atom under one choice
	// of the atoms before and skipped it under another.
	alts  []pattern
	lo    []int
	order []int
	pick  []int
	taken []int
	mixed bool
	fixed []binding
	// factors are the instantiated queries whose branches are a product
	// (see factor), their atoms' rewriting lists held in falts, the atom of
	// each in fatoms.
	factors []factor
	falts   []pattern
	fatoms  []int
	// arena backs the pattern lists of the union's branches, the one under
	// construction last; key and sorted are the scratch of its dedup key,
	// made with the union's second branch.
	arena, sorted []pattern
	key           []byte
	// props and classes are the candidates of a variable in property and in
	// class position, computed on first use.
	props, classes []dict.ID
	// usedVocab records that a variable was instantiated over the data
	// vocabulary (feeding UCQ.VocabDependent).
	usedVocab bool
}

// Reformulate rewrites q against the closed schema. src supplies the data
// graph's vocabulary for schema-position variables; it may be nil when the
// query has no variables in class/property positions.
func Reformulate(q *sparql.Query, sch *schema.Schema, d *dict.Dict, src VocabularySource, opt Options) (*UCQ, error) {
	var r rewriter
	if err := r.init(q, sch, d, src, opt.MaxBranches); err != nil {
		return nil, err
	}
	keep, err := r.union(opt.Minimize)
	if err != nil {
		return nil, err
	}
	ucq := &UCQ{Query: q, Branches: make([]Branch, len(keep)), VocabDependent: r.usedVocab}
	// One array holds the branches' patterns, in order, then those of the
	// joins of several atoms. A join of one atom's rewritings holds its
	// branches' patterns: branch lo+k takes rewriting k.
	n, m := 0, 0
	for _, br := range keep {
		n += len(br.pats)
	}
	for _, f := range r.factors {
		if f.atoms > 1 {
			m += f.to - f.from
		}
	}
	all := make([]rdf.Triple, n+m)
	pats := all
	for i, br := range keep {
		k := len(br.pats)
		ucq.Branches[i], pats = r.render(br, pats[:k:k]), pats[k:]
	}
	if len(r.factors) > 0 {
		ucq.joins = make([]join, len(r.factors))
		b, at := 0, 0 // all[at:] holds the patterns of Branches[b:]
		for i, f := range r.factors {
			for ; b < f.lo; b++ {
				at += len(keep[b].pats)
			}
			j, k := join{lo: f.lo, hi: f.hi, atoms: r.fatoms[f.from:f.to:f.to]}, f.to-f.from
			if f.atoms == 1 {
				j.patterns = all[at : at+k : at+k]
			} else {
				j.patterns, pats = pats[:k:k], pats[k:]
				for x, p := range r.falts[f.from:f.to] {
					r.triple(p, &j.patterns[x])
				}
			}
			ucq.joins[i] = j
		}
	}
	return ucq, nil
}

// init validates q, interns its atoms and readies r to rewrite them.
func (r *rewriter) init(q *sparql.Query, sch *schema.Schema, d *dict.Dict, src VocabularySource, max int) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if d.Len() >= maxDictLen {
		return fmt.Errorf("reformulate: dictionary of %d terms exceeds the rewriter's %d", d.Len(), maxDictLen)
	}
	if max <= 0 {
		max = DefaultMaxBranches
	}
	*r = rewriter{form: form{d: d}, sch: sch, voc: sch.Vocab(), src: src, max: max}
	// No instantiation has more atoms than the query. The slices grow past
	// the room given here by reallocating.
	n := len(q.Patterns)
	pats, ints := make([]pattern, 12*n), make([]int, 4*n+1)
	r.query, r.alts, r.arena = pats[:0:n], pats[n:n:9*n], pats[9*n:9*n]
	r.lo, r.order, r.pick, r.taken = ints[:0:n+1], ints[n+1:n+1:2*n+1], ints[2*n+1:3*n+1], ints[3*n+1:]
	for _, t := range q.Patterns {
		r.query = append(r.query, pattern{r.intern(t.S), r.intern(t.P), r.intern(t.O)})
	}
	return nil
}

// union builds the union, in two phases. The first instantiates the
// variables in property and class position (instances); no rewriting puts a
// variable there, so it runs once. The second rewrites each atom of each
// instantiated query alone and takes the product of the rewritings
// (product). With minimise, the product skips the atoms that an atom
// chosen before them absorbs, and the union returned is what minimize keeps
// of the branches built, each reduced to its core.
func (r *rewriter) union(minimise bool) ([]branch, error) {
	r.query = dedupe(r.query)
	if err := r.product(branch{pats: r.query}, minimise); err != nil {
		return nil, err
	}
	qs, err := r.instances()
	if err != nil {
		return nil, err
	}
	for _, q := range qs {
		if err := r.product(q, minimise); err != nil {
			return nil, err
		}
	}
	if !minimise {
		r.keepFactors(nil)
		return r.out, nil
	}
	keep := minimize(r.out, int(r.fresh))
	for k, i := range keep {
		r.out[k] = r.out[i] // i ≥ k: keep ascends
	}
	r.out = r.out[:len(keep)]
	r.keepFactors(keep)
	return r.out, nil
}

// keepFactors keeps the factors whose branches the union keeps whole: every
// one (keep lists, ascending, the indexes out held before minimisation, nil
// for all of them) and each with an atom of every rewriting list, so that
// neither dedupe nor a core shortened it. The join of the lists then
// evaluates exactly the union's branches. A kept factor's range is moved to
// its branches in out.
func (r *rewriter) keepFactors(keep []int) {
	kept := r.factors[:0]
	for _, f := range r.factors {
		if keep != nil {
			lo, _ := slices.BinarySearch(keep, f.lo)
			hi, _ := slices.BinarySearch(keep, f.hi)
			if hi-lo != f.hi-f.lo {
				continue
			}
			f.lo, f.hi = lo, hi
		}
		if slices.ContainsFunc(r.out[f.lo:f.hi], func(b branch) bool { return len(b.pats) != f.atoms }) {
			continue
		}
		kept = append(kept, f)
	}
	r.factors = kept
}

// instances returns the instantiations of the query (its repeated atoms
// dropped): each query that fixing a variable in property or class
// position to one of its candidates gives, repeatedly, since fixing a
// variable predicate to rdf:type puts its object in class position. An
// instantiation keeps the variables it left free in their atoms, which no
// rewriting changes. Which atoms a binding merges depends on the order of
// the bindings (instantiate), so an instantiation is one set of bindings
// and the atoms some order of them leaves.
func (r *rewriter) instances() ([]branch, error) {
	if !slices.ContainsFunc(r.query, func(p pattern) bool { return r.schemaVar(p) != 0 }) {
		return nil, nil
	}
	r.usedVocab = true
	qs := []branch{{pats: r.query}}
	seen := map[string]struct{}{}
	for i := 0; i < len(qs); i++ {
		for _, p := range qs[i].pats {
			v := r.schemaVar(p)
			if v == 0 {
				continue
			}
			for _, c := range r.candidates(p) {
				q := r.instantiate(qs[i], v, uint32(c))
				r.key, r.sorted = appendKey(r.key[:0], r.sorted, q.pats, q.fixed)
				if _, dup := seen[string(r.key)]; dup {
					continue
				}
				if len(qs) >= r.max {
					return nil, fmt.Errorf("%w (limit %d)", ErrTooLarge, r.max)
				}
				seen[string(r.key)] = struct{}{}
				qs = append(qs, q)
			}
		}
	}
	return qs[1:], nil
}

// instantiate returns q with variable v fixed to the constant c. Two atoms
// the binding makes equal become one only if both held a variable in
// property or class position before it: an atom that held none could have
// been rewritten before the binding, and the two rewritten apart.
func (r *rewriter) instantiate(q branch, v, c uint32) branch {
	at, _ := slices.BinarySearchFunc(q.fixed, v, func(b binding, v uint32) int { return cmp.Compare(b.v, v) })
	out := branch{fixed: slices.Insert(slices.Clone(q.fixed), at, binding{v, c})}
	var from []int // the atom of q each atom of out comes from
	for i, p := range q.pats {
		for e := range p {
			if p[e] == v {
				p[e] = c
			}
		}
		merged := false
		if r.schemaVar(q.pats[i]) != 0 {
			for k, j := range from {
				if out.pats[k] == p && r.schemaVar(q.pats[j]) != 0 {
					merged = true
					break
				}
			}
		}
		if !merged {
			out.pats = append(out.pats, p)
			from = append(from, i)
		}
	}
	return out
}

// schemaVar returns the variable in property position of p, or in class
// position of an rdf:type p; 0 if p has neither.
func (r *rewriter) schemaVar(p pattern) uint32 {
	switch {
	case isVar(p[1]):
		return p[1]
	case p[1] == uint32(r.voc.Type) && isVar(p[2]):
		return p[2]
	}
	return 0
}

// candidates returns the constants the variable schemaVar finds in p may
// be fixed to: the candidate properties or classes, computed once a run.
func (r *rewriter) candidates(p pattern) []dict.ID {
	if isVar(p[1]) {
		if r.props == nil {
			r.props = propertyCandidates(r.sch, r.src)
		}
		return r.props
	}
	if r.classes == nil {
		r.classes = classCandidates(r.sch, r.src)
	}
	return r.classes
}

// product adds to the union the branches of the instantiated query q: one
// per choice of a rewriting for each of its atoms.
func (r *rewriter) product(q branch, minimise bool) error {
	r.alts, r.lo, r.order, r.fixed = r.alts[:0], r.lo[:0], r.order[:0], q.fixed
	r.taken, r.mixed = r.taken[:len(q.pats)], false
	clear(r.taken)
	for i, p := range q.pats {
		r.lo = append(r.lo, len(r.alts))
		r.rewrite(p)
		if p[1] != uint32(r.voc.Type) {
			r.order = append(r.order, i)
		}
	}
	r.lo = append(r.lo, len(r.alts))
	for i, p := range q.pats {
		if p[1] == uint32(r.voc.Type) {
			r.order = append(r.order, i)
		}
	}
	r.pick = r.pick[:len(q.pats)]
	start := len(r.out)
	if err := r.choose(0, minimise); err != nil {
		return err
	}
	r.factor(start)
	return nil
}

// factor is an instantiated query whose branches, out[lo:hi], are exactly
// the product of the rewriting lists of the atoms choose took: it took or
// skipped each atom whatever it chose before, and no two choices made one
// branch. falts[from:to] holds the lists; atoms is their number.
type factor struct {
	lo, hi, from, to, atoms int
}

// factor records the branches the product added since the union held start
// as a factor, when they are the product of the lists of the atoms choose
// took and number at least two (one branch is its own plan).
func (r *rewriter) factor(start int) {
	n, size := len(r.out)-start, 1
	if r.mixed || n < 2 {
		return
	}
	for i, t := range r.taken {
		if t == 1 {
			if size *= r.lo[i+1] - r.lo[i]; size > n {
				return
			}
		}
	}
	if size != n {
		return
	}
	f := factor{lo: start, hi: len(r.out), from: len(r.falts)}
	r.falts, r.fatoms = slices.Grow(r.falts, len(r.alts)), slices.Grow(r.fatoms, len(r.alts))
	for i, t := range r.taken {
		if t == 1 {
			for _, a := range r.alts[r.lo[i]:r.lo[i+1]] {
				r.falts = append(r.falts, a)
				r.fatoms = append(r.fatoms, f.atoms)
			}
			f.atoms++
		}
	}
	f.to = len(r.falts)
	r.factors = append(r.factors, f)
}

// rewrite appends to alts the rewritings of atom p alone: p, then the
// closure of Step over it. An atom with a variable in property or class
// position has no other. The rewritings share one fresh variable: a branch
// takes one of them.
func (r *rewriter) rewrite(p pattern) {
	lo := len(r.alts)
	r.alts = append(r.alts, p)
	if r.schemaVar(p) != 0 {
		return
	}
	fresh := dict.None
	for k := lo; k < len(r.alts); k++ {
		a := r.alts[k]
		if a[1] == uint32(r.voc.Type) && fresh == dict.None {
			fresh = dict.ID(r.freshVar())
		}
		Step(r.sch, r.src, dict.ID(a[0]), dict.ID(a[1]), dict.ID(a[2]), fresh, func(s, p, o dict.ID, _ bool) bool {
			if b := (pattern{uint32(s), uint32(p), uint32(o)}); !slices.Contains(r.alts[lo:], b) {
				r.alts = append(r.alts, b)
			}
			return true
		})
	}
}

// choose takes, depth first, a rewriting for each atom from order[d] on,
// and adds each full choice to the union. Under minimisation an atom is
// skipped when one of its rewritings a holds a fresh variable and an atom
// already chosen implies a, equal to it but for the fresh variable, which
// occurs in a alone: the branches that take a are equivalent to the one
// without the atom, and it subsumes the branches that take any other
// rewriting of it.
func (r *rewriter) choose(d int, minimise bool) error {
	if d == len(r.order) {
		return r.emit()
	}
	i := r.order[d]
	skip := minimise && r.absorbed(r.alts[r.lo[i]:r.lo[i+1]], r.order[:d])
	t := 1
	if skip {
		t = 2
	}
	if r.taken[i] == 0 {
		r.taken[i] = t
	}
	r.mixed = r.mixed || r.taken[i] != t
	if skip {
		r.pick[i] = -1
		return r.choose(d+1, minimise)
	}
	for k := r.lo[i]; k < r.lo[i+1]; k++ {
		r.pick[i] = k
		if err := r.choose(d+1, minimise); err != nil {
			return err
		}
	}
	return nil
}

// absorbed reports whether an atom chosen for one of the atoms in before
// implies one of alts.
func (r *rewriter) absorbed(alts []pattern, before []int) bool {
	for _, a := range alts {
		f := slices.IndexFunc(a[:], isFresh)
		if f < 0 {
			continue
		}
		for _, j := range before {
			if k := r.pick[j]; k >= 0 {
				b := r.alts[k]
				b[f] = a[f]
				if b == a {
					return true
				}
			}
		}
	}
	return false
}

// emit adds the chosen branch to the union unless an equivalent one was
// already produced. It builds the branch at the end of the arena.
func (r *rewriter) emit() error {
	n := len(r.arena)
	for _, k := range r.pick {
		if k >= 0 {
			r.arena = append(r.arena, r.alts[k])
		}
	}
	pats := dedupe(r.arena[n:])
	r.arena = r.arena[:n+len(pats)]
	br := branch{pats: r.arena[n:len(r.arena):len(r.arena)], fixed: r.fixed}
	if len(r.out) > 0 { // the first branch repeats none
		if r.seen == nil {
			r.seen = map[string]struct{}{}
			r.remember(r.out[0])
		}
		if !r.remember(br) {
			r.arena = r.arena[:n]
			return nil
		}
		if len(r.out) >= r.max {
			return fmt.Errorf("%w (limit %d)", ErrTooLarge, r.max)
		}
	}
	r.out = append(r.out, br)
	return nil
}

// remember adds the dedup key of br to seen, reporting whether it was new.
func (r *rewriter) remember(br branch) bool {
	r.key, r.sorted = appendKey(r.key[:0], r.sorted, br.pats, br.fixed)
	if _, dup := r.seen[string(r.key)]; dup {
		return false
	}
	r.seen[string(r.key)] = struct{}{}
	return true
}

// freshVar coins a fresh, non-projected variable (⋆).
func (r *rewriter) freshVar() uint32 {
	r.fresh++
	return varTag | freshTag | (r.fresh - 1)
}

// Step calls fn with each single-step rewriting of the triple pattern
// (s p o) under the closed schema sch: the rules of [12], read backwards,
// that both query-time techniques apply, reformulation to every pattern of a
// query and backward chaining to one pattern at a time.
//
//   - (s rdf:type C) gives (s rdf:type C') for every subclass C' ⊑ C,
//     (s P fresh) for every property P with domain C, and (fresh P s) for
//     every property P with range C, the one step that moves s to the
//     object position, which fn is told by inv;
//   - (s P o), for any other P but a constraint property, gives (s P' o)
//     for every subproperty P' ⊑ P; a constraint pattern gives nothing, its
//     triples being the closed schema the store holds;
//   - p, or the class o of an rdf:type pattern, given as dict.None is a
//     variable, and gives its instantiations over G∞'s vocabulary: (s P o)
//     for every property P of the schema or of src's triples, and rdf:type,
//     and (s rdf:type C) for every class C of the schema or of src's
//     rdf:type triples. src may be nil when neither is a variable.
//
// fresh stands for ⋆, a position the rewriting leaves free. s, o and fresh
// are passed through unread, so they may be any element of the caller's
// patterns. Step stops when fn returns false, and reports whether it ran to
// the end.
func Step(sch *schema.Schema, src VocabularySource, s, p, o, fresh dict.ID, fn func(s, p, o dict.ID, inv bool) bool) bool {
	voc := sch.Vocab()
	if p != voc.Type {
		subs := sch.SubProperties(p)
		switch {
		case p == dict.None:
			subs = propertyCandidates(sch, src)
		case voc.IsConstraintProperty(p):
			subs = nil
		}
		for _, sub := range subs {
			if !fn(s, sub, o, false) {
				return false
			}
		}
		return true
	}
	classes := sch.SubClasses(o)
	if o == dict.None {
		classes = classCandidates(sch, src) // no property has dict.None as domain or range
	}
	for _, c := range classes {
		if !fn(s, p, c, false) {
			return false
		}
	}
	for _, prop := range sch.PropertiesWithDomain(o) {
		if !fn(s, prop, fresh, false) {
			return false
		}
	}
	for _, prop := range sch.PropertiesWithRange(o) {
		if !fn(fresh, prop, s, true) {
			return false
		}
	}
	return true
}

// propertyCandidates returns the possible bindings of a property-position
// variable over G∞: properties used in G, properties of the schema, and
// rdf:type.
func propertyCandidates(sch *schema.Schema, src VocabularySource) []dict.ID {
	ids := []dict.ID{sch.Vocab().Type}
	if src != nil {
		ids = append(ids, src.Predicates()...) // a copy: sortedSet sorts in place
	}
	return sortedSet(append(ids, sch.Properties()...))
}

// classCandidates returns the possible bindings of a class-position variable
// over G∞: classes asserted in G plus classes of the schema.
func classCandidates(sch *schema.Schema, src VocabularySource) []dict.ID {
	var ids []dict.ID
	if src != nil {
		ids = src.Objects(sch.Vocab().Type)
	}
	return sortedSet(append(append(make([]dict.ID, 0, len(ids)), ids...), sch.Classes()...))
}

// sortedSet sorts ids and drops repeats, in place.
func sortedSet(ids []dict.ID) []dict.ID {
	slices.Sort(ids)
	return slices.Compact(ids)
}

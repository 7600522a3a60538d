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
}

// Size returns the number of union members, the paper's measure of
// reformulation blowup (TestLUBMUnionSizes pins it for the LUBM queries,
// and the benchmark traces it as reformulate.branches).
func (u *UCQ) Size() int { return len(u.Branches) }

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
	// seen holds the dedup key of every branch produced; out is the union
	// in production order.
	seen map[string]struct{}
	out  []branch
	// fresh is the number of fresh variables coined so far.
	fresh uint32
	// The product of one instantiated query. alts holds the rewritings of
	// its atoms, atom i's in alts[lo[i]:lo[i+1]] with the atom itself
	// first; order lists the atoms in the order the product chooses them,
	// and pick the index in alts of each atom's choice, -1 for an atom the
	// choices before it absorb. fixed is the query's bindings.
	alts  []pattern
	lo    []int
	order []int
	pick  []int
	fixed []binding
	// arena backs the pattern lists of the union's branches, the one under
	// construction last; key and sorted are the scratch of its dedup key.
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
	for i, br := range keep {
		ucq.Branches[i] = r.render(br)
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
	*r = rewriter{form: form{d: d}, sch: sch, voc: sch.Vocab(), src: src, max: max, seen: map[string]struct{}{}}
	// No instantiation has more atoms than the query. The slices grow past
	// the room given here by reallocating.
	n := len(q.Patterns)
	pats, ints := make([]pattern, 14*n), make([]int, 3*n+1)
	r.query, r.sorted, r.alts, r.arena = pats[:0:n], pats[n:n:2*n], pats[2*n:2*n:10*n], pats[10*n:10*n]
	r.lo, r.order, r.pick = ints[:0:n+1], ints[n+1:n+1:2*n+1], ints[2*n+1:]
	r.key = make([]byte, 0, 16*n+16)
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
		return r.out, nil
	}
	keep := minimize(r.out, int(r.fresh))
	for k, i := range keep {
		r.out[k] = r.out[i] // i ≥ k: keep ascends
	}
	return r.out[:len(keep)], nil
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
	return r.choose(0, minimise)
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
	if minimise && r.absorbed(r.alts[r.lo[i]:r.lo[i+1]], r.order[:d]) {
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
	r.key, r.sorted = appendKey(r.key[:0], r.sorted, pats, r.fixed)
	if _, dup := r.seen[string(r.key)]; dup {
		r.arena = r.arena[:n]
		return nil
	}
	if len(r.seen) >= r.max {
		return fmt.Errorf("%w (limit %d)", ErrTooLarge, r.max)
	}
	r.seen[string(r.key)] = struct{}{}
	r.out = append(r.out, branch{pats: r.arena[n:len(r.arena):len(r.arena)], fixed: r.fixed})
	return nil
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

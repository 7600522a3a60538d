// Package reformulate implements the paper's second query-answering
// technique: rewriting a BGP query q into a union of BGP queries qref such
// that evaluating qref against the original graph G yields exactly the
// answers of q against the saturation G∞ — q_ref(G) = q(G∞), Section II-B.
//
// The algorithm is the fixpoint rewriting of [12] (Goasdoué, Manolescu,
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
// Step is the one copy of these rules: the rewriter applies it to every
// pattern of every branch, backward chaining (internal/core) to one pattern
// at a time during evaluation.
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
// deduplicate on the bytes of their sorted, fresh-renamed pattern list, and
// the terms of a Branch are built once, for the branches the union keeps.
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
	// MaxBranches caps the size of the union; reformulation fails with
	// ErrTooLarge beyond it. Zero means DefaultMaxBranches.
	MaxBranches int
	// Minimize reduces each union member to its core, dropping the atoms
	// the rest of the member implies, and prunes members subsumed by other
	// members before returning ([12]'s minimal reformulations; see
	// UCQ.Minimize). It trades rewriting time for evaluation time; see
	// experiment E6.
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
// reformulation blowup (experiment E6).
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
	// seen holds the dedup key of every branch produced; out is the union
	// in production order, and the breadth-first queue: a branch is
	// expanded once every branch before it has been.
	seen map[string]struct{}
	out  []branch
	// fresh is the number of fresh variables coined so far.
	fresh uint32
	// tmp is the branch under construction, fix its fixed bindings, key
	// and sorted the scratch of its dedup key.
	tmp    []pattern
	fix    []binding
	key    []byte
	sorted []pattern
	// usedVocab records that a variable was instantiated over the data
	// vocabulary (feeding UCQ.VocabDependent).
	usedVocab bool
}

// Reformulate rewrites q against the closed schema. src supplies the data
// graph's vocabulary for schema-position variables; it may be nil when the
// query has no variables in class/property positions.
func Reformulate(q *sparql.Query, sch *schema.Schema, d *dict.Dict, src VocabularySource, opt Options) (*UCQ, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if d.Len() >= maxDictLen {
		return nil, fmt.Errorf("reformulate: dictionary of %d terms exceeds the rewriter's %d", d.Len(), maxDictLen)
	}
	max := opt.MaxBranches
	if max <= 0 {
		max = DefaultMaxBranches
	}
	r := &rewriter{form: form{d: d}, sch: sch, voc: sch.Vocab(), src: src, max: max, seen: map[string]struct{}{}}
	for _, t := range q.Patterns {
		r.tmp = append(r.tmp, pattern{r.intern(t.S), r.intern(t.P), r.intern(t.O)})
	}
	if err := r.push(nil); err != nil {
		return nil, err
	}
	for i := 0; i < len(r.out); i++ {
		if err := r.expand(r.out[i]); err != nil {
			return nil, err
		}
	}
	keep := r.out
	if opt.Minimize {
		keep = nil
		for _, i := range minimize(r.out, int(r.fresh)) {
			keep = append(keep, r.out[i])
		}
	}
	ucq := &UCQ{Query: q, Branches: make([]Branch, len(keep)), VocabDependent: r.usedVocab}
	for i, br := range keep {
		ucq.Branches[i] = r.render(br)
	}
	return ucq, nil
}

// push adds the branch under construction (tmp, with the fixed bindings
// given) to the union unless an equivalent one was already produced.
func (r *rewriter) push(fixed []binding) error {
	r.tmp = dedupe(r.tmp)
	r.key, r.sorted = appendKey(r.key[:0], r.sorted, r.tmp, fixed)
	if _, dup := r.seen[string(r.key)]; dup {
		return nil
	}
	if len(r.seen) >= r.max {
		return fmt.Errorf("%w (limit %d)", ErrTooLarge, r.max)
	}
	r.seen[string(r.key)] = struct{}{}
	r.out = append(r.out, branch{pats: slices.Clone(r.tmp), fixed: slices.Clone(fixed)})
	return nil
}

// expand applies every single-step rewriting to every pattern of br. A
// variable in property position, or in class position of an rdf:type
// pattern, goes to Step as dict.None, which instantiates it.
func (r *rewriter) expand(br branch) error {
	var err error
	for i, p := range br.pats {
		v, fresh := uint32(0), dict.None
		switch {
		case isVar(p[1]):
			v, p[1] = p[1], uint32(dict.None)
		case p[1] == uint32(r.voc.Type) && isVar(p[2]):
			v, p[2] = p[2], uint32(dict.None)
		case p[1] == uint32(r.voc.Type):
			fresh = dict.ID(r.freshVar())
		}
		r.usedVocab = r.usedVocab || v != 0
		Step(r.sch, r.src, dict.ID(p[0]), dict.ID(p[1]), dict.ID(p[2]), fresh, func(s, pr, o dict.ID, _ bool) bool {
			switch {
			case v == 0:
				err = r.replace(br, i, pattern{uint32(s), uint32(pr), uint32(o)})
			case p[1] == uint32(dict.None):
				err = r.instantiate(br, v, uint32(pr))
			default:
				err = r.instantiate(br, v, uint32(o))
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// replace pushes br with pattern i swapped for p.
func (r *rewriter) replace(br branch, i int, p pattern) error {
	r.tmp = append(r.tmp[:0], br.pats...)
	r.tmp[i] = p
	return r.push(br.fixed)
}

// instantiate pushes br with variable v replaced by the constant c
// everywhere, the binding recorded so the evaluator can emit it.
func (r *rewriter) instantiate(br branch, v, c uint32) error {
	at, _ := slices.BinarySearchFunc(br.fixed, v, func(b binding, v uint32) int { return cmp.Compare(b.v, v) })
	r.tmp = r.tmp[:0]
	for _, p := range br.pats {
		for k, e := range p {
			if e == v {
				p[k] = c
			}
		}
		r.tmp = append(r.tmp, p)
	}
	r.fix = append(append(append(r.fix[:0], br.fixed[:at]...), binding{v, c}), br.fixed[at:]...)
	return r.push(r.fix)
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

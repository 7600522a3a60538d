package schema

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/store"
)

// fixture builds a store containing the constraint triples of a small
// ontology:
//
//	Student ⊑ Person, GradStudent ⊑ Student,
//	Professor ⊑ Person,
//	advises ⊑ knows,
//	advises domain Professor, advises range Student,
//	knows domain Person, knows range Person.
type fix struct {
	d   *dict.Dict
	st  *store.Store
	voc Vocab
	s   *Schema

	person, student, grad, prof dict.ID
	advises, knows              dict.ID
}

func buildFixture(t *testing.T) *fix {
	t.Helper()
	f := &fix{d: dict.New(), st: store.New()}
	f.voc = NewVocab(f.d)
	iri := func(name string) dict.ID { return f.d.Encode(rdf.NewIRI("http://ex.org/" + name)) }
	f.person, f.student, f.grad, f.prof = iri("Person"), iri("Student"), iri("GradStudent"), iri("Professor")
	f.advises, f.knows = iri("advises"), iri("knows")

	add := func(s, p, o dict.ID) { f.st.Add(store.Triple{S: s, P: p, O: o}) }
	add(f.student, f.voc.SubClassOf, f.person)
	add(f.grad, f.voc.SubClassOf, f.student)
	add(f.prof, f.voc.SubClassOf, f.person)
	add(f.advises, f.voc.SubPropertyOf, f.knows)
	add(f.advises, f.voc.Domain, f.prof)
	add(f.advises, f.voc.Range, f.student)
	add(f.knows, f.voc.Domain, f.person)
	add(f.knows, f.voc.Range, f.person)
	// An instance triple that must be ignored by schema extraction.
	add(iri("alice"), f.voc.Type, f.student)

	f.s = Extract(f.st, f.voc)
	return f
}

func ids(xs ...dict.ID) []dict.ID { return xs }

func eqIDs(t *testing.T, what string, got, want []dict.ID) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s = %v, want %v", what, got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s = %v, want %v", what, got, want)
			return
		}
	}
}

func TestSubClassTransitiveClosure(t *testing.T) {
	f := buildFixture(t)
	if !slices.Contains(f.s.SuperClasses(f.grad), f.person) {
		t.Error("GradStudent ⊑ Person missing from closure")
	}
	if !slices.Contains(f.s.SuperClasses(f.grad), f.student) || !slices.Contains(f.s.SuperClasses(f.student), f.person) {
		t.Error("direct subclass edges missing")
	}
	if slices.Contains(f.s.SuperClasses(f.person), f.grad) {
		t.Error("closure inverted an edge")
	}
	if slices.Contains(f.s.SuperClasses(f.grad), f.grad) {
		t.Error("closure must stay strict on acyclic input")
	}
	// Sorted slices: GradStudent < Person etc. depend on ID assignment order;
	// person < student < grad < prof in encounter order here.
	eqIDs(t, "SubClasses(Person)", f.s.SubClasses(f.person), ids(f.student, f.grad, f.prof))
	eqIDs(t, "SuperClasses(GradStudent)", f.s.SuperClasses(f.grad), ids(f.person, f.student))
}

func TestSubPropertyClosure(t *testing.T) {
	f := buildFixture(t)
	if !slices.Contains(f.s.SuperProperties(f.advises), f.knows) {
		t.Error("advises ⊑ knows missing")
	}
	eqIDs(t, "SubProperties(knows)", f.s.SubProperties(f.knows), ids(f.advises))
	eqIDs(t, "SuperProperties(advises)", f.s.SuperProperties(f.advises), ids(f.knows))
}

func TestDomainRangePropagation(t *testing.T) {
	f := buildFixture(t)
	// Closed domain of advises: Professor (direct), Person (Professor ⊑
	// Person, and inherited from knows).
	eqIDs(t, "Domains(advises)", f.s.Domains(f.advises), ids(f.person, f.prof))
	// Closed range of advises: Student (direct), Person (via subclass and via
	// knows).
	eqIDs(t, "Ranges(advises)", f.s.Ranges(f.advises), ids(f.person, f.student))
	// Inverses used by reformulation: properties whose domain includes
	// Person are advises and knows.
	eqIDs(t, "PropertiesWithDomain(Person)", f.s.PropertiesWithDomain(f.person), ids(f.advises, f.knows))
	eqIDs(t, "PropertiesWithDomain(Professor)", f.s.PropertiesWithDomain(f.prof), ids(f.advises))
	eqIDs(t, "PropertiesWithRange(Student)", f.s.PropertiesWithRange(f.student), ids(f.advises))
}

func TestClassesAndProperties(t *testing.T) {
	f := buildFixture(t)
	eqIDs(t, "Classes", f.s.Classes(), ids(f.person, f.student, f.grad, f.prof))
	eqIDs(t, "Properties", f.s.Properties(), ids(f.advises, f.knows))
}

func TestClosureTriplesContainInputAndDerived(t *testing.T) {
	f := buildFixture(t)
	closure := store.New()
	for _, tr := range f.s.ClosureTriples() {
		closure.Add(tr)
	}
	// Input constraint present.
	if !closure.Contains(store.Triple{S: f.student, P: f.voc.SubClassOf, O: f.person}) {
		t.Error("input constraint missing from closure triples")
	}
	// Derived transitive edge present.
	if !closure.Contains(store.Triple{S: f.grad, P: f.voc.SubClassOf, O: f.person}) {
		t.Error("derived subclass edge missing from closure triples")
	}
	// Derived domain constraint (advises domain Person).
	if !closure.Contains(store.Triple{S: f.advises, P: f.voc.Domain, O: f.person}) {
		t.Error("propagated domain constraint missing")
	}
	// No instance triples leak in.
	if closure.Count(store.Triple{P: f.voc.Type}) != 0 {
		t.Error("instance triple leaked into schema closure")
	}
	if f.s.Size() != closure.Len() {
		t.Errorf("Size() = %d, want %d", f.s.Size(), closure.Len())
	}
}

func TestCyclicHierarchyTerminates(t *testing.T) {
	d := dict.New()
	voc := NewVocab(d)
	st := store.New()
	a := d.Encode(rdf.NewIRI("http://ex.org/A"))
	b := d.Encode(rdf.NewIRI("http://ex.org/B"))
	c := d.Encode(rdf.NewIRI("http://ex.org/C"))
	st.Add(store.Triple{S: a, P: voc.SubClassOf, O: b})
	st.Add(store.Triple{S: b, P: voc.SubClassOf, O: c})
	st.Add(store.Triple{S: c, P: voc.SubClassOf, O: a})
	s := Extract(st, voc)
	// In a cycle every class is a (non-strict) subclass of every other,
	// including itself.
	for _, x := range []dict.ID{a, b, c} {
		for _, y := range []dict.ID{a, b, c} {
			if !slices.Contains(s.SuperClasses(x), y) {
				t.Errorf("cycle closure incomplete: %d ⊑ %d missing", x, y)
			}
		}
	}
}

func TestEmptySchema(t *testing.T) {
	d := dict.New()
	voc := NewVocab(d)
	st := store.New()
	x := d.Encode(rdf.NewIRI("http://ex.org/x"))
	st.Add(store.Triple{S: x, P: voc.Type, O: d.Encode(rdf.NewIRI("http://ex.org/C"))})
	s := Extract(st, voc)
	if s.Size() != 0 || len(s.Classes()) != 0 || len(s.Properties()) != 0 {
		t.Error("schema of an instance-only graph should be empty")
	}
	if got := s.SubClasses(x); len(got) != 0 {
		t.Errorf("SubClasses of unknown class = %v, want empty", got)
	}
}

func TestVocabConstraintPredicate(t *testing.T) {
	d := dict.New()
	voc := NewVocab(d)
	for _, p := range []dict.ID{voc.SubClassOf, voc.SubPropertyOf, voc.Domain, voc.Range} {
		if !voc.IsConstraintProperty(p) {
			t.Errorf("ID %d should be a constraint property", p)
		}
	}
	if voc.IsConstraintProperty(voc.Type) {
		t.Error("rdf:type must not be a constraint property")
	}
}

func TestDiamondHierarchy(t *testing.T) {
	// D ⊑ B, D ⊑ C, B ⊑ A, C ⊑ A: closure must not duplicate A.
	d := dict.New()
	voc := NewVocab(d)
	st := store.New()
	id := func(n string) dict.ID { return d.Encode(rdf.NewIRI("http://ex.org/" + n)) }
	a, b, c, dd := id("A"), id("B"), id("C"), id("D")
	st.Add(store.Triple{S: dd, P: voc.SubClassOf, O: b})
	st.Add(store.Triple{S: dd, P: voc.SubClassOf, O: c})
	st.Add(store.Triple{S: b, P: voc.SubClassOf, O: a})
	st.Add(store.Triple{S: c, P: voc.SubClassOf, O: a})
	s := Extract(st, voc)
	eqIDs(t, "SuperClasses(D)", s.SuperClasses(dd), ids(a, b, c))
	eqIDs(t, "SubClasses(A)", s.SubClasses(a), ids(b, c, dd))
}

// TestExtractOfClosureIsSameSchema: the schema Extract returns is closed, so
// extracting again over its own ClosureTriples returns the same schema — the
// same closure triples, classes and properties, and the same answer from
// every accessor. Reformulation relies on it to extract once per schema
// change. Checked on the fixtures and on random hierarchies with cycles.
func TestExtractOfClosureIsSameSchema(t *testing.T) {
	same := func(t *testing.T, what string, s *Schema) {
		t.Helper()
		st := store.New()
		for _, tr := range s.ClosureTriples() {
			st.Add(tr)
		}
		again := Extract(st, s.Vocab())
		if !slices.Equal(again.ClosureTriples(), s.ClosureTriples()) {
			t.Fatalf("%s: closure triples differ", what)
		}
		eqIDs(t, what+": Classes", again.Classes(), s.Classes())
		eqIDs(t, what+": Properties", again.Properties(), s.Properties())
		for _, id := range append(slices.Clone(s.Classes()), s.Properties()...) {
			for _, acc := range []func(*Schema, dict.ID) []dict.ID{
				(*Schema).SubClasses, (*Schema).SuperClasses,
				(*Schema).SubProperties, (*Schema).SuperProperties,
				(*Schema).Domains, (*Schema).Ranges,
				(*Schema).PropertiesWithDomain, (*Schema).PropertiesWithRange,
			} {
				eqIDs(t, fmt.Sprintf("%s: accessor of %d", what, id), acc(again, id), acc(s, id))
			}
		}
	}
	same(t, "fixture", buildFixture(t).s)
	for seed := int64(0); seed < 300; seed++ {
		g := newRandomSchemas(seed)
		st := storeOf(g.edges())
		st.Add(store.Triple{S: g.terms[0], P: g.voc.Type, O: g.terms[1]}) // instance data, ignored
		same(t, fmt.Sprintf("seed %d", seed), Extract(st, g.voc))
	}
}

// randomSchemas draws random constraint triples over eight terms, each
// term in class and property positions alike, so hierarchies have cycles.
type randomSchemas struct {
	rng   *rand.Rand
	voc   Vocab
	terms []dict.ID
}

func newRandomSchemas(seed int64) *randomSchemas {
	d := dict.New()
	g := &randomSchemas{rng: rand.New(rand.NewSource(seed)), voc: NewVocab(d), terms: make([]dict.ID, 8)}
	for i := range g.terms {
		g.terms[i] = d.Encode(rdf.NewIRI(fmt.Sprintf("http://ex.org/t%d", i)))
	}
	return g
}

// edge returns one random constraint triple.
func (g *randomSchemas) edge() store.Triple {
	preds := []dict.ID{g.voc.SubClassOf, g.voc.SubPropertyOf, g.voc.Domain, g.voc.Range}
	return store.Triple{S: g.terms[g.rng.Intn(len(g.terms))], P: preds[g.rng.Intn(len(preds))], O: g.terms[g.rng.Intn(len(g.terms))]}
}

// edges returns one to sixteen random constraint triples.
func (g *randomSchemas) edges() []store.Triple {
	var ts []store.Triple
	for i := g.rng.Intn(16); i >= 0; i-- {
		ts = append(ts, g.edge())
	}
	return ts
}

func storeOf(ts []store.Triple) *store.Store {
	st := store.New()
	for _, tr := range ts {
		st.Add(tr)
	}
	return st
}

// TestMinusIsClosureDifference checks Minus, the one schema diff, against
// the set difference of two closures read through the accessors, on random
// cyclic schemas and on the schema updates of each: an edge added, an edge
// removed, both. Both directions are checked, and against the empty schema
// Minus is the whole closure, which is what ClosureTriples returns.
func TestMinusIsClosureDifference(t *testing.T) {
	// closure lists s's closure triples through its accessors.
	closure := func(s *Schema) map[store.Triple]bool {
		out := map[store.Triple]bool{}
		add := func(a, p dict.ID, bs []dict.ID) {
			for _, b := range bs {
				out[store.Triple{S: a, P: p, O: b}] = true
			}
		}
		for _, c := range s.Classes() {
			add(c, s.voc.SubClassOf, s.SuperClasses(c))
		}
		for _, p := range s.Properties() {
			add(p, s.voc.SubPropertyOf, s.SuperProperties(p))
			add(p, s.voc.Domain, s.Domains(p))
			add(p, s.voc.Range, s.Ranges(p))
		}
		return out
	}
	// difference returns the sorted triples of a's closure not in b's.
	difference := func(a, b *Schema) []store.Triple {
		in := closure(b)
		var out []store.Triple
		for tr := range closure(a) {
			if !in[tr] {
				out = append(out, tr)
			}
		}
		slices.SortFunc(out, store.Compare)
		return out
	}
	check := func(what string, a, b *Schema) {
		t.Helper()
		if got, want := a.Minus(b), difference(a, b); !slices.Equal(got, want) {
			t.Fatalf("%s: Minus = %v, the closures' difference %v", what, got, want)
		}
	}
	nonEmpty := 0
	for seed := int64(0); seed < 300; seed++ {
		g := newRandomSchemas(seed)
		empty := Extract(store.New(), g.voc)
		edges := g.edges()
		st := storeOf(edges)
		old := Extract(st, g.voc)
		if seed%3 != 0 {
			st.Remove(edges[g.rng.Intn(len(edges))])
		}
		if seed%3 != 1 {
			st.Add(g.edge())
		}
		updated := Extract(st, g.voc)
		what := fmt.Sprintf("seed %d", seed)
		check(what+": new minus old", updated, old)
		check(what+": old minus new", old, updated)
		check(what+": minus the empty schema", old, empty)
		check(what+": the empty schema minus", empty, old)
		check(what+": minus itself", old, old)
		if !slices.Equal(old.ClosureTriples(), old.Minus(empty)) || len(old.ClosureTriples()) != old.Size() {
			t.Fatalf("%s: ClosureTriples is not the whole closure", what)
		}
		if len(updated.Minus(old))+len(old.Minus(updated)) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 150 {
		t.Fatalf("only %d of 300 updates changed the closure", nonEmpty)
	}
}

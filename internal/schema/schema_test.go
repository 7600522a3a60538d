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
	if !f.s.IsSubClassOf(f.grad, f.person) {
		t.Error("GradStudent ⊑ Person missing from closure")
	}
	if !f.s.IsSubClassOf(f.grad, f.student) || !f.s.IsSubClassOf(f.student, f.person) {
		t.Error("direct subclass edges missing")
	}
	if f.s.IsSubClassOf(f.person, f.grad) {
		t.Error("closure inverted an edge")
	}
	if f.s.IsSubClassOf(f.grad, f.grad) {
		t.Error("closure must stay strict on acyclic input")
	}
	// Sorted slices: GradStudent < Person etc. depend on ID assignment order;
	// person < student < grad < prof in encounter order here.
	eqIDs(t, "SubClasses(Person)", f.s.SubClasses(f.person), ids(f.student, f.grad, f.prof))
	eqIDs(t, "SuperClasses(GradStudent)", f.s.SuperClasses(f.grad), ids(f.person, f.student))
}

func TestSubPropertyClosure(t *testing.T) {
	f := buildFixture(t)
	if !f.s.IsSubPropertyOf(f.advises, f.knows) {
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
			if !s.IsSubClassOf(x, y) {
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
		rng := rand.New(rand.NewSource(seed))
		d := dict.New()
		voc := NewVocab(d)
		terms := make([]dict.ID, 8)
		for i := range terms {
			terms[i] = d.Encode(rdf.NewIRI(fmt.Sprintf("http://ex.org/t%d", i)))
		}
		preds := []dict.ID{voc.SubClassOf, voc.SubPropertyOf, voc.Domain, voc.Range}
		st := store.New()
		for i := rng.Intn(16); i >= 0; i-- {
			st.Add(store.Triple{S: terms[rng.Intn(len(terms))], P: preds[rng.Intn(len(preds))], O: terms[rng.Intn(len(terms))]})
		}
		st.Add(store.Triple{S: terms[0], P: voc.Type, O: terms[1]}) // instance data, ignored
		same(t, fmt.Sprintf("seed %d", seed), Extract(st, voc))
	}
}

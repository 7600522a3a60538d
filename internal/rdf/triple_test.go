package rdf

import (
	"errors"
	"testing"
)

var (
	exA = NewIRI("http://ex.org/a")
	exB = NewIRI("http://ex.org/b")
	exP = NewIRI("http://ex.org/p")
)

func TestTripleWellFormed(t *testing.T) {
	good := []Triple{
		T(exA, exP, exB),
		T(exA, exP, NewLiteral("v")),
		T(NewBlank("b"), exP, NewBlank("c")),
		T(exA, Type, exB),
		T(exP, SubPropertyOf, exB),
		T(Type, SubPropertyOf, Type),    // reflexive: says nothing
		T(exA, SubClassOf, RDFProperty), // built-in classes are plain classes
		T(exP, Domain, Class),
	}
	for _, tr := range good {
		if err := tr.WellFormed(); err != nil {
			t.Errorf("%v: unexpected error %v", tr, err)
		}
	}
	bad := []Triple{
		T(NewLiteral("x"), exP, exB), // literal subject
		T(exA, NewLiteral("p"), exB), // literal predicate
		T(exA, NewBlank("p"), exB),   // blank predicate
		T(exA, exP, NewVar("o")),     // variable object
		T(NewVar("s"), exP, exB),     // variable subject
		T(exA, NewVar("p"), exB),     // variable predicate
		// Outside the DB fragment: a built-in property as super-property
		// of another, or constrained itself.
		T(exP, SubPropertyOf, Type),
		T(exP, SubPropertyOf, SubClassOf),
		T(exP, SubPropertyOf, SubPropertyOf),
		T(exP, SubPropertyOf, Domain),
		T(exP, SubPropertyOf, Range),
		T(Type, SubPropertyOf, exP),
		T(Type, Domain, exB),
		T(Type, Range, exB),
		T(SubClassOf, SubPropertyOf, exP),
		T(SubClassOf, Domain, exB),
		T(Range, Range, exB),
	}
	for _, tr := range bad {
		err := tr.WellFormed()
		if err == nil {
			t.Errorf("%v: want well-formedness error, got nil", tr)
			continue
		}
		if !errors.Is(err, ErrIllFormed) {
			t.Errorf("%v: error %v should wrap ErrIllFormed", tr, err)
		}
	}
}

func TestTripleIsSchema(t *testing.T) {
	schema := []Triple{
		T(exA, SubClassOf, exB),
		T(exA, SubPropertyOf, exB),
		T(exA, Domain, exB),
		T(exA, Range, exB),
	}
	for _, tr := range schema {
		if !tr.IsSchema() {
			t.Errorf("%v: should be schema", tr)
		}
	}
	instance := []Triple{
		T(exA, Type, exB),
		T(exA, exP, exB),
	}
	for _, tr := range instance {
		if tr.IsSchema() {
			t.Errorf("%v: should not be schema", tr)
		}
	}
}

func TestTripleHasVariable(t *testing.T) {
	if T(exA, exP, exB).HasVariable() {
		t.Error("ground triple reported a variable")
	}
	for _, tr := range []Triple{
		T(NewVar("s"), exP, exB),
		T(exA, NewVar("p"), exB),
		T(exA, exP, NewVar("o")),
	} {
		if !tr.HasVariable() {
			t.Errorf("%v: variable not detected", tr)
		}
	}
}

func TestTripleStringAndCompare(t *testing.T) {
	tr := T(exA, exP, NewLiteral("v"))
	want := `<http://ex.org/a> <http://ex.org/p> "v"`
	if tr.String() != want {
		t.Errorf("String() = %q, want %q", tr.String(), want)
	}
	a := T(exA, exP, exA)
	b := T(exA, exP, exB)
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 || a.Compare(a) != 0 {
		t.Error("Compare is not a consistent order on triples")
	}
}

// TestFigure1MappingMatchesVocabulary checks the built-in properties against
// the paper's Figure 1: rdf:type writes class assertions, and the four
// constraint rows are exactly the schema properties of the DB fragment.
func TestFigure1MappingMatchesVocabulary(t *testing.T) {
	if Type.Value != RDFNS+"type" {
		t.Errorf("class assertion property is %v, want rdf:type", Type)
	}
	for name, p := range map[string]Term{
		"Subclass":      SubClassOf,
		"Subproperty":   SubPropertyOf,
		"Domain typing": Domain,
		"Range typing":  Range,
	} {
		if !IsSchemaProperty(p) {
			t.Errorf("row %q: property %v not recognised as schema property", name, p)
		}
	}
	if IsSchemaProperty(Type) {
		t.Error("rdf:type is not a schema (constraint) property in the DB fragment")
	}
}

package rdf

import (
	"errors"
	"fmt"
)

// Triple is an RDF triple (or, when it contains variables, a triple pattern).
// Triples are comparable values and can be used as map keys.
type Triple struct {
	S, P, O Term
}

// T is a shorthand constructor for a triple.
func T(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple in N-Triples-like syntax (no trailing dot).
func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s", t.S, t.P, t.O)
}

// ErrIllFormed is wrapped by all well-formedness violations reported by
// (Triple).WellFormed.
var ErrIllFormed = errors.New("ill-formed triple")

// WellFormed checks that the triple is a well-formed RDF triple per the DB
// fragment: subject is an IRI or blank node, predicate is an IRI, and object
// is an IRI, blank node or literal. Variables are rejected (they belong to
// patterns, not graphs).
//
// The DB fragment also keeps the built-in properties of Figure 1 (rdf:type
// and the four constraint properties) at their fixed meaning, so a property
// constraint may neither name one of them as the super-property of another
// property, as in (p rdfs:subPropertyOf rdf:type), nor constrain one of them,
// as in (rdf:type rdfs:range c); the reflexive (b rdfs:subPropertyOf b) says
// nothing and is allowed. Either form would let instance triples entail
// schema triples, or rdf:type triples entail further rdf:type triples about
// other resources, and the closed schema that saturation, reformulation and
// backward chaining all answer from captures neither.
func (t Triple) WellFormed() error {
	switch t.S.Kind {
	case IRI, Blank:
	default:
		return fmt.Errorf("%w: subject must be IRI or blank node, got %s", ErrIllFormed, t.S)
	}
	if t.P.Kind != IRI {
		return fmt.Errorf("%w: predicate must be IRI, got %s", ErrIllFormed, t.P)
	}
	switch t.O.Kind {
	case IRI, Blank, Literal:
	default:
		return fmt.Errorf("%w: object must be IRI, blank node or literal, got %s", ErrIllFormed, t.O)
	}
	constraint := t.P == SubPropertyOf || t.P == Domain || t.P == Range
	switch reflexive := t.P == SubPropertyOf && t.S == t.O; {
	case t.P == SubPropertyOf && IsBuiltinProperty(t.O) && !reflexive:
		return fmt.Errorf("%w: built-in property %s cannot be a super-property of %s in the DB fragment", ErrIllFormed, t.O, t.S)
	case constraint && IsBuiltinProperty(t.S) && !reflexive:
		return fmt.Errorf("%w: built-in property %s cannot be constrained in the DB fragment", ErrIllFormed, t.S)
	}
	return nil
}

// IsSchema reports whether the triple is a schema (constraint) triple, i.e.
// its predicate is one of the four RDFS constraint properties.
func (t Triple) IsSchema() bool { return IsSchemaProperty(t.P) }

// HasVariable reports whether any position holds a query variable, i.e. the
// value is a triple pattern rather than a concrete triple.
func (t Triple) HasVariable() bool {
	return t.S.IsVar() || t.P.IsVar() || t.O.IsVar()
}

// Compare orders triples lexicographically by subject, predicate, object.
func (t Triple) Compare(u Triple) int {
	if c := t.S.Compare(u.S); c != 0 {
		return c
	}
	if c := t.P.Compare(u.P); c != 0 {
		return c
	}
	return t.O.Compare(u.O)
}

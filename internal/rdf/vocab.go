package rdf

// Namespace IRIs for the vocabularies the DB fragment of RDF relies on.
const (
	// RDFNS is the rdf: namespace.
	RDFNS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
	// RDFSNS is the rdfs: namespace.
	RDFSNS = "http://www.w3.org/2000/01/rdf-schema#"
	// XSDNS is the xsd: namespace (literal datatypes).
	XSDNS = "http://www.w3.org/2001/XMLSchema#"
)

// The built-in properties of Figure 1: rdf:type for class assertions, and the
// four RDFS constraint properties for schema statements.
var (
	// Type is rdf:type — "s rdf:type o" states that resource s belongs to
	// class o (relational notation o(s)).
	Type = NewIRI(RDFNS + "type")
	// SubClassOf is rdfs:subClassOf — "s rdfs:subClassOf o" states s ⊆ o.
	SubClassOf = NewIRI(RDFSNS + "subClassOf")
	// SubPropertyOf is rdfs:subPropertyOf — "s rdfs:subPropertyOf o" states s ⊆ o.
	SubPropertyOf = NewIRI(RDFSNS + "subPropertyOf")
	// Domain is rdfs:domain — "s rdfs:domain o" states Π_domain(s) ⊆ o.
	Domain = NewIRI(RDFSNS + "domain")
	// Range is rdfs:range — "s rdfs:range o" states Π_range(s) ⊆ o.
	Range = NewIRI(RDFSNS + "range")

	// Class is rdfs:Class, the class of classes.
	Class = NewIRI(RDFSNS + "Class")
	// RDFProperty is rdf:Property, the class of properties.
	RDFProperty = NewIRI(RDFNS + "Property")
	// RDFSResource is rdfs:Resource, the top class.
	RDFSResource = NewIRI(RDFSNS + "Resource")
	// Label is rdfs:label (annotation; carried through but not reasoned on).
	Label = NewIRI(RDFSNS + "label")
	// Comment is rdfs:comment (annotation).
	Comment = NewIRI(RDFSNS + "comment")

	// XSDString, XSDInteger, XSDDecimal, XSDBoolean are common literal
	// datatypes emitted by the parsers.
	XSDString  = XSDNS + "string"
	XSDInteger = XSDNS + "integer"
	XSDDecimal = XSDNS + "decimal"
	XSDBoolean = XSDNS + "boolean"
)

// IsSchemaProperty reports whether p is one of the four RDFS constraint
// properties of Figure 1 (bottom): rdfs:subClassOf, rdfs:subPropertyOf,
// rdfs:domain, rdfs:range. Triples with such predicates are schema triples
// in the DB fragment.
func IsSchemaProperty(p Term) bool {
	return p == SubClassOf || p == SubPropertyOf || p == Domain || p == Range
}

// IsBuiltinProperty reports whether p is one of the five built-in properties
// of Figure 1: rdf:type or one of the four RDFS constraint properties.
func IsBuiltinProperty(p Term) bool { return p == Type || IsSchemaProperty(p) }

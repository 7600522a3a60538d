// Package reason implements the forward-chaining side of the paper: RDF
// entailment rules, graph saturation (the closure G∞ of Section II-A), and
// the saturation-maintenance algorithms for instance and schema updates
// whose costs drive the thresholds of Figure 3.
//
// The rules are declarative values (RDFSRules: two triple-pattern premises
// and a conclusion over shared variables), and they are the only rule set
// this package implements. It does not evaluate them by joins: it compiles
// them against the closed schema of internal/schema, the closure under
// exactly these rules that reformulation and backward chaining answer from
// as well. Once the schema is closed, every rule has one schema premise, so
// each triple of G∞ is one step from an asserted triple: a triple (s p o)
// entails (s p' o) for each super-property p' of p, (s rdf:type c) for each
// closed domain c of p and (o rdf:type c) for each closed range c, and
// (s rdf:type c) entails (s rdf:type c') for each superclass c' of c.
// Saturation adds those consequences in one pass with no rounds, and a
// deletion checks each affected triple's support one step back.
//
// The precondition is the DB fragment of RDF (rdf.Triple.WellFormed): no
// constraint names a built-in property (rdf:type, rdfs:subClassOf,
// rdfs:subPropertyOf, rdfs:domain, rdfs:range) as a super-property of
// another property, or constrains one. Outside it a derived triple can have
// consequences of its own, which the one-step closure does not add.
package reason

import (
	"fmt"
	"slices"

	"repro/internal/dict"
	"repro/internal/schema"
)

// Atom is one position of a rule pattern: either a constant term ID or a
// rule variable (an index local to the rule).
type Atom struct {
	// IsVar distinguishes variables from constants.
	IsVar bool
	// ID is the constant (when !IsVar).
	ID dict.ID
	// Var is the variable index (when IsVar), in [0, Rule.NVars).
	Var int
}

// C returns a constant atom.
func C(id dict.ID) Atom { return Atom{ID: id} }

// V returns a variable atom.
func V(i int) Atom { return Atom{IsVar: true, Var: i} }

// Pattern is a triple pattern over rule atoms.
type Pattern struct {
	S, P, O Atom
}

// Rule is an immediate entailment rule with exactly two premises, the shape
// of every rule in the DB fragment of RDF (Figure 2 plus the schema-level
// rules). Premises and conclusion share variables by index. Rules are
// comparable values.
type Rule struct {
	// Name is the rule's identifier, e.g. "rdfs9" (paper names where they
	// exist, "ext-*" for the constraint-on-constraint rules of [12]).
	Name string
	// Doc is the rule written out in the paper's notation.
	Doc string
	// Premises are the two body patterns.
	Premises [2]Pattern
	// Conclusion is the head pattern; all its variables must appear in the
	// premises (the rules are safe).
	Conclusion Pattern
	// NVars is the number of distinct variables in the rule.
	NVars int
}

// Validate checks rule safety: conclusion variables must occur in premises,
// and variable indexes must be dense in [0, NVars).
func (r *Rule) Validate() error {
	seen := make([]bool, r.NVars)
	record := func(a Atom, where string) error {
		if !a.IsVar {
			return nil
		}
		if a.Var < 0 || a.Var >= r.NVars {
			return fmt.Errorf("rule %s: variable %d out of range in %s", r.Name, a.Var, where)
		}
		seen[a.Var] = true
		return nil
	}
	for i, p := range r.Premises {
		for _, a := range []Atom{p.S, p.P, p.O} {
			if err := record(a, fmt.Sprintf("premise %d", i)); err != nil {
				return err
			}
		}
	}
	for i := range seen {
		if !seen[i] {
			return fmt.Errorf("rule %s: variable %d unused in premises", r.Name, i)
		}
	}
	for _, a := range []Atom{r.Conclusion.S, r.Conclusion.P, r.Conclusion.O} {
		if a.IsVar && (a.Var < 0 || a.Var >= r.NVars) {
			return fmt.Errorf("rule %s: conclusion variable %d out of range", r.Name, a.Var)
		}
		if a.IsVar && !seen[a.Var] {
			return fmt.Errorf("rule %s: conclusion variable %d not bound by premises (unsafe rule)", r.Name, a.Var)
		}
	}
	return nil
}

// RDFSRules returns the entailment rule set of the DB fragment of RDF: the
// four instance-entailment rules of Figure 2 (rdfs2, rdfs3, rdfs7, rdfs9)
// plus the schema-level rules that close the ontology (rdfs5, rdfs11 and the
// four constraint-propagation rules used by [12]).
func RDFSRules(voc schema.Vocab) []Rule {
	// Variable naming convention inside each rule, for readability:
	// 0,1,2 are the first premise's fresh positions in reading order.
	rules := []Rule{
		{
			Name: "rdfs5", Doc: "p1 rdfs:subPropertyOf p2 ∧ p2 rdfs:subPropertyOf p3 ⊢ p1 rdfs:subPropertyOf p3",
			Premises: [2]Pattern{
				{S: V(0), P: C(voc.SubPropertyOf), O: V(1)},
				{S: V(1), P: C(voc.SubPropertyOf), O: V(2)},
			},
			Conclusion: Pattern{S: V(0), P: C(voc.SubPropertyOf), O: V(2)},
			NVars:      3,
		},
		{
			Name: "rdfs11", Doc: "c1 rdfs:subClassOf c2 ∧ c2 rdfs:subClassOf c3 ⊢ c1 rdfs:subClassOf c3",
			Premises: [2]Pattern{
				{S: V(0), P: C(voc.SubClassOf), O: V(1)},
				{S: V(1), P: C(voc.SubClassOf), O: V(2)},
			},
			Conclusion: Pattern{S: V(0), P: C(voc.SubClassOf), O: V(2)},
			NVars:      3,
		},
		{
			Name: "ext-dom-sp", Doc: "p1 rdfs:subPropertyOf p2 ∧ p2 rdfs:domain c ⊢ p1 rdfs:domain c",
			Premises: [2]Pattern{
				{S: V(0), P: C(voc.SubPropertyOf), O: V(1)},
				{S: V(1), P: C(voc.Domain), O: V(2)},
			},
			Conclusion: Pattern{S: V(0), P: C(voc.Domain), O: V(2)},
			NVars:      3,
		},
		{
			Name: "ext-rng-sp", Doc: "p1 rdfs:subPropertyOf p2 ∧ p2 rdfs:range c ⊢ p1 rdfs:range c",
			Premises: [2]Pattern{
				{S: V(0), P: C(voc.SubPropertyOf), O: V(1)},
				{S: V(1), P: C(voc.Range), O: V(2)},
			},
			Conclusion: Pattern{S: V(0), P: C(voc.Range), O: V(2)},
			NVars:      3,
		},
		{
			Name: "ext-dom-sc", Doc: "p rdfs:domain c1 ∧ c1 rdfs:subClassOf c2 ⊢ p rdfs:domain c2",
			Premises: [2]Pattern{
				{S: V(0), P: C(voc.Domain), O: V(1)},
				{S: V(1), P: C(voc.SubClassOf), O: V(2)},
			},
			Conclusion: Pattern{S: V(0), P: C(voc.Domain), O: V(2)},
			NVars:      3,
		},
		{
			Name: "ext-rng-sc", Doc: "p rdfs:range c1 ∧ c1 rdfs:subClassOf c2 ⊢ p rdfs:range c2",
			Premises: [2]Pattern{
				{S: V(0), P: C(voc.Range), O: V(1)},
				{S: V(1), P: C(voc.SubClassOf), O: V(2)},
			},
			Conclusion: Pattern{S: V(0), P: C(voc.Range), O: V(2)},
			NVars:      3,
		},
		{
			Name: "rdfs2", Doc: "p rdfs:domain c ∧ s p o ⊢ s rdf:type c",
			Premises: [2]Pattern{
				{S: V(0), P: C(voc.Domain), O: V(1)},
				{S: V(2), P: V(0), O: V(3)},
			},
			Conclusion: Pattern{S: V(2), P: C(voc.Type), O: V(1)},
			NVars:      4,
		},
		{
			Name: "rdfs3", Doc: "p rdfs:range c ∧ s p o ⊢ o rdf:type c",
			Premises: [2]Pattern{
				{S: V(0), P: C(voc.Range), O: V(1)},
				{S: V(2), P: V(0), O: V(3)},
			},
			Conclusion: Pattern{S: V(3), P: C(voc.Type), O: V(1)},
			NVars:      4,
		},
		{
			Name: "rdfs7", Doc: "p1 rdfs:subPropertyOf p2 ∧ s p1 o ⊢ s p2 o",
			Premises: [2]Pattern{
				{S: V(0), P: C(voc.SubPropertyOf), O: V(1)},
				{S: V(2), P: V(0), O: V(3)},
			},
			Conclusion: Pattern{S: V(2), P: V(1), O: V(3)},
			NVars:      4,
		},
		{
			Name: "rdfs9", Doc: "c1 rdfs:subClassOf c2 ∧ s rdf:type c1 ⊢ s rdf:type c2",
			Premises: [2]Pattern{
				{S: V(0), P: C(voc.SubClassOf), O: V(1)},
				{S: V(2), P: C(voc.Type), O: V(0)},
			},
			Conclusion: Pattern{S: V(2), P: C(voc.Type), O: V(1)},
			NVars:      3,
		},
	}
	return rules
}

// vocabOf returns the vocabulary rules were built over. It panics unless
// rules is RDFSRules of that vocabulary: the compiled closure implements
// that rule set and no other.
func vocabOf(rules []Rule) schema.Vocab {
	var voc schema.Vocab
	if len(rules) == 10 {
		voc = schema.Vocab{
			Type:          rules[9].Premises[1].P.ID,
			SubClassOf:    rules[1].Premises[0].P.ID,
			SubPropertyOf: rules[0].Premises[0].P.ID,
			Domain:        rules[2].Premises[1].P.ID,
			Range:         rules[3].Premises[1].P.ID,
		}
	}
	if !slices.Equal(rules, RDFSRules(voc)) {
		panic("reason: the rule set is not RDFSRules; only the RDFS rules of the DB fragment are implemented")
	}
	return voc
}

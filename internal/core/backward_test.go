package core

import (
	"strings"
	"testing"

	"repro/internal/sparql"
	"repro/internal/store"
)

// backwardFixture returns a Backward strategy over the university KB plus
// the KB for decoding.
func backwardFixture(t *testing.T) (*KB, *Backward) {
	t.Helper()
	kb := loadKB(t)
	return kb, NewBackward(kb)
}

func answers(t *testing.T, kb *KB, s Strategy, qtext string) []string {
	t.Helper()
	res, err := s.Answer(sparql.MustParse(qtext))
	if err != nil {
		t.Fatalf("%s: %v", qtext, err)
	}
	return resultStrings(t, kb, res)
}

const rdfsPrefix = `PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX ex: <http://ex.org/>
`

func TestBackwardSchemaPatternsAllShapes(t *testing.T) {
	kb, b := backwardFixture(t)
	cases := []struct {
		name  string
		query string
		want  int // answer count; -1 = just require non-empty
	}{
		{"sco fully bound", rdfsPrefix + `ASK { ex:GradStudent rdfs:subClassOf ex:Person }`, -1},
		{"sco subject bound", rdfsPrefix + `SELECT ?c WHERE { ex:GradStudent rdfs:subClassOf ?c }`, 2}, // Student, Person
		{"sco object bound", rdfsPrefix + `SELECT ?c WHERE { ?c rdfs:subClassOf ex:Person }`, 3},       // GradStudent, Student, Professor
		{"sco both vars", rdfsPrefix + `SELECT ?a ?b WHERE { ?a rdfs:subClassOf ?b }`, 4},              // 3 direct + 1 transitive
		{"spo object bound", rdfsPrefix + `SELECT ?p WHERE { ?p rdfs:subPropertyOf ex:knows }`, 1},     // advises
		{"domain subject bound", rdfsPrefix + `SELECT ?c WHERE { ex:advises rdfs:domain ?c }`, 2},      // Professor, Person (closure)
		{"domain object bound", rdfsPrefix + `SELECT ?p WHERE { ?p rdfs:domain ex:Person }`, 2},        // knows, advises (closure)
		{"range object bound", rdfsPrefix + `SELECT ?p WHERE { ?p rdfs:range ex:GradStudent }`, 1},     // advises
		{"range both vars", rdfsPrefix + `SELECT ?p ?c WHERE { ?p rdfs:range ?c }`, 4},                 // knows→Person, advises→{GradStudent,Student,Person}
	}
	for _, c := range cases {
		got := answers(t, kb, b, c.query)
		if c.want == -1 {
			if len(got) == 0 {
				t.Errorf("%s: no answers", c.name)
			}
			continue
		}
		if len(got) != c.want {
			t.Errorf("%s: %d answers, want %d: %v", c.name, len(got), c.want, got)
		}
	}
}

func TestBackwardSchemaPatternsMatchSaturation(t *testing.T) {
	// The virtual view's schema answers must coincide with evaluating over
	// the saturated store — for every pattern shape.
	kb := loadKB(t)
	b := NewBackward(kb)
	s := NewSaturation(kb)
	queries := []string{
		rdfsPrefix + `SELECT ?a ?b WHERE { ?a rdfs:subClassOf ?b }`,
		rdfsPrefix + `SELECT ?a ?b WHERE { ?a rdfs:subPropertyOf ?b }`,
		rdfsPrefix + `SELECT ?a ?b WHERE { ?a rdfs:domain ?b }`,
		rdfsPrefix + `SELECT ?a ?b WHERE { ?a rdfs:range ?b }`,
		rdfsPrefix + `SELECT ?c WHERE { ex:advises rdfs:range ?c }`,
		rdfsPrefix + `SELECT ?x WHERE { ?x rdfs:subClassOf ex:Person }`,
	}
	for _, q := range queries {
		sat := answers(t, kb, s, q)
		back := answers(t, kb, b, q)
		if strings.Join(sat, "\n") != strings.Join(back, "\n") {
			t.Errorf("%s:\nsaturation: %v\nbackward:   %v", q, sat, back)
		}
	}
}

func TestBackwardLimitStopsEarly(t *testing.T) {
	kb, b := backwardFixture(t)
	res, err := b.Answer(sparql.MustParse(
		`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Person } LIMIT 2`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("LIMIT 2 returned %d rows", len(res.Rows))
	}
	_ = kb
}

func TestBackwardVariablePredicateIncludesEntailed(t *testing.T) {
	kb, b := backwardFixture(t)
	// jones ?p lee must include knows (entailed via advises ⊑ knows) and
	// advises (explicit).
	got := answers(t, kb, b, `PREFIX ex: <http://ex.org/> SELECT ?p WHERE { ex:jones ?p ex:lee }`)
	want := []string{"<http://ex.org/advises>", "<http://ex.org/knows>"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestBackwardTypeSubjectBoundClassUnbound(t *testing.T) {
	kb, b := backwardFixture(t)
	// All classes of lee: GradStudent (range of advises), Student, Person.
	got := answers(t, kb, b, `PREFIX ex: <http://ex.org/> SELECT ?c WHERE { ex:lee a ?c }`)
	if len(got) != 3 {
		t.Errorf("lee has %d classes, want 3: %v", len(got), got)
	}
}

func TestBackwardCountEstimates(t *testing.T) {
	// Count must never under-estimate below the explicit matches and must
	// stay cheap to call; it guides only the optimizer.
	kb := loadKB(t)
	b := NewBackward(kb)
	v := b.cur.Load().src.(*inferredView)
	voc := kb.Vocab()
	person, _ := kb.Dict().Lookup(iri("Person"))
	knows, _ := kb.Dict().Lookup(iri("knows"))
	typePat := store.Triple{P: voc.Type, O: person}
	if v.Count(typePat) < v.st.Count(typePat) {
		t.Error("Count under explicit for type pattern")
	}
	knowsPat := store.Triple{P: knows}
	if v.Count(knowsPat) < v.st.Count(knowsPat) {
		t.Error("Count under explicit for property pattern")
	}
	if v.Count(store.Triple{}) <= 0 {
		t.Error("wildcard Count should be positive")
	}
	if v.Count(store.Triple{P: voc.SubClassOf}) <= 0 {
		t.Error("schema Count should be positive")
	}
}

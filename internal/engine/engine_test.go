package engine

import (
	"slices"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// testKB builds a small social graph:
//
//	alice knows bob, bob knows carol, alice knows carol,
//	alice type Person, bob type Person, carol type Student,
//	alice name "Alice".
type testKB struct {
	d  *dict.Dict
	st *store.Store
}

func newTestKB(t *testing.T) *testKB {
	t.Helper()
	kb := &testKB{d: dict.New(), st: store.New()}
	add := func(s, p, o rdf.Term) {
		kb.st.Add(store.Triple{S: kb.d.Encode(s), P: kb.d.Encode(p), O: kb.d.Encode(o)})
	}
	iri := func(n string) rdf.Term { return rdf.NewIRI("http://ex.org/" + n) }
	add(iri("alice"), iri("knows"), iri("bob"))
	add(iri("bob"), iri("knows"), iri("carol"))
	add(iri("alice"), iri("knows"), iri("carol"))
	add(iri("alice"), rdf.Type, iri("Person"))
	add(iri("bob"), rdf.Type, iri("Person"))
	add(iri("carol"), rdf.Type, iri("Student"))
	add(iri("alice"), iri("name"), rdf.NewLiteral("Alice"))
	return kb
}

// evalStrings evaluates the query text and returns sorted decoded rows as
// "|"-joined term strings.
func (kb *testKB) evalStrings(t *testing.T, qs string, project []string) []string {
	t.Helper()
	q := sparql.MustParse(qs)
	c, err := Compile(q.Patterns, kb.d)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Eval(kb.st).Project(project).Distinct().Sort()
	var out []string
	for _, row := range res.Decode(kb.d) {
		s := ""
		for i, term := range row {
			if i > 0 {
				s += "|"
			}
			s += term.String()
		}
		out = append(out, s)
	}
	return out
}

func TestEvalSinglePattern(t *testing.T) {
	kb := newTestKB(t)
	got := kb.evalStrings(t, `PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Person }`, []string{"x"})
	want := []string{"<http://ex.org/alice>", "<http://ex.org/bob>"}
	eqStrings(t, got, want)
}

func eqStrings(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEvalJoin(t *testing.T) {
	kb := newTestKB(t)
	got := kb.evalStrings(t, `PREFIX ex: <http://ex.org/>
SELECT ?x ?y WHERE { ?x ex:knows ?y . ?y a ex:Person }`, []string{"x", "y"})
	want := []string{"<http://ex.org/alice>|<http://ex.org/bob>"}
	eqStrings(t, got, want)
}

func TestEvalTriangleJoin(t *testing.T) {
	kb := newTestKB(t)
	got := kb.evalStrings(t, `PREFIX ex: <http://ex.org/>
SELECT ?a ?b ?c WHERE { ?a ex:knows ?b . ?b ex:knows ?c . ?a ex:knows ?c }`, []string{"a", "b", "c"})
	want := []string{"<http://ex.org/alice>|<http://ex.org/bob>|<http://ex.org/carol>"}
	eqStrings(t, got, want)
}

func TestEvalVariablePredicate(t *testing.T) {
	kb := newTestKB(t)
	got := kb.evalStrings(t, `PREFIX ex: <http://ex.org/>
SELECT ?p WHERE { ex:alice ?p ex:bob }`, []string{"p"})
	want := []string{"<http://ex.org/knows>"}
	eqStrings(t, got, want)
}

func TestEvalRepeatedVariable(t *testing.T) {
	kb := newTestKB(t)
	// Add a self-loop to exercise repeated-variable consistency.
	self := kb.d.Encode(rdf.NewIRI("http://ex.org/dave"))
	knows := kb.d.Encode(rdf.NewIRI("http://ex.org/knows"))
	kb.st.Add(store.Triple{S: self, P: knows, O: self})
	got := kb.evalStrings(t, `PREFIX ex: <http://ex.org/>
SELECT ?x WHERE { ?x ex:knows ?x }`, []string{"x"})
	want := []string{"<http://ex.org/dave>"}
	eqStrings(t, got, want)
}

func TestEvalLiteralObject(t *testing.T) {
	kb := newTestKB(t)
	got := kb.evalStrings(t, `PREFIX ex: <http://ex.org/>
SELECT ?x WHERE { ?x ex:name "Alice" }`, []string{"x"})
	eqStrings(t, got, []string{"<http://ex.org/alice>"})
}

func TestEvalUnknownConstantIsEmptyNotError(t *testing.T) {
	kb := newTestKB(t)
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Unicorn }`)
	c, err := Compile(q.Patterns, kb.d)
	if err != nil {
		t.Fatalf("unknown constant should not error: %v", err)
	}
	if res := c.Eval(kb.st); len(res.Rows) != 0 {
		t.Errorf("got %d rows, want 0", len(res.Rows))
	}
}

func TestEvalEmptyBGPIsError(t *testing.T) {
	kb := newTestKB(t)
	if _, err := Compile(nil, kb.d); err == nil {
		t.Error("empty BGP should be a compile error")
	}
}

func TestBagSemanticsAndDistinct(t *testing.T) {
	kb := newTestKB(t)
	// ?x knows ?y, project ?x: alice appears twice (bob, carol).
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:knows ?y }`)
	c, err := Compile(q.Patterns, kb.d)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Eval(kb.st)
	proj := res.Project([]string{"x"})
	if len(proj.Rows) != 3 {
		t.Errorf("bag projection rows = %d, want 3", len(proj.Rows))
	}
	if got := len(proj.Distinct().Rows); got != 2 {
		t.Errorf("distinct rows = %d, want 2", got)
	}
}

func TestLimit(t *testing.T) {
	kb := newTestKB(t)
	q := sparql.MustParse(`SELECT * WHERE { ?s ?p ?o }`)
	c, err := Compile(q.Patterns, kb.d)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Eval(kb.st)
	if got := len(res.Limit(2).Rows); got != 2 {
		t.Errorf("Limit(2) rows = %d", got)
	}
	if got := len(res.Limit(0).Rows); got != kb.st.Len() {
		t.Errorf("Limit(0) should keep all rows, got %d", got)
	}
	if got := len(res.Limit(1000).Rows); got != kb.st.Len() {
		t.Errorf("Limit beyond size should keep all rows, got %d", got)
	}
}

func TestProjectMissingVarGivesNoneColumn(t *testing.T) {
	kb := newTestKB(t)
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Person }`)
	c, err := Compile(q.Patterns, kb.d)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Eval(kb.st)
	proj := res.Project([]string{"x", "ghost"})
	for _, row := range proj.Rows {
		if row[1] != dict.None {
			t.Errorf("ghost column should be None, got %d", row[1])
		}
	}
}

func TestPlanPrefersSelectivePatterns(t *testing.T) {
	kb := newTestKB(t)
	// Pattern 0 is a full scan (?s ?p ?o), pattern 1 is selective
	// (alice name ?n): the plan must start with pattern 1.
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/>
SELECT * WHERE { ?s ?p ?o . ex:alice ex:name ?o }`)
	c, err := Compile(q.Patterns, kb.d)
	if err != nil {
		t.Fatal(err)
	}
	plan := c.Plan(kb.st)
	if plan[0].PatternIndex != 1 {
		t.Errorf("plan starts with pattern %d, want 1 (selective first): %+v", plan[0].PatternIndex, plan)
	}
	if plan[0].EstimatedCost > plan[1].EstimatedCost {
		t.Errorf("plan costs not increasing: %+v", plan)
	}
}

// countingSource counts the Count probes made of its store.
type countingSource struct {
	*store.Store
	counts int
}

func (s *countingSource) Count(pat store.Triple) int {
	s.counts++
	return s.Store.Count(pat)
}

// TestPlanReadsEachCountOnce pins that planning a BGP of n patterns probes
// the source n times, not once per pattern per greedy round, and orders the
// patterns by their discounted counts: selective first, then the join
// partners of the variables it binds.
func TestPlanReadsEachCountOnce(t *testing.T) {
	kb := newTestKB(t)
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/>
SELECT * WHERE { ?x ex:knows ?y . ?y a ?c . ?x ex:name ?n . ?x a ?d }`)
	c, err := Compile(q.Patterns, kb.d)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{Store: kb.st}
	plan := c.Plan(src)
	if src.counts != len(q.Patterns) {
		t.Errorf("plan made %d Count probes for %d patterns", src.counts, len(q.Patterns))
	}
	// Counts: knows 3, type 3, name 1. name goes first and binds ?x, which
	// makes knows and ?x's type 3/4+1 = 1 each: knows, first in query order,
	// binds ?y, and the two type patterns follow at 1, in query order.
	want := []PlanStep{{2, 2}, {0, 1}, {1, 1}, {3, 1}}
	if !slices.Equal(plan, want) {
		t.Errorf("plan = %+v, want %+v", plan, want)
	}
}

func TestEvalCartesianProduct(t *testing.T) {
	// Disconnected patterns must still produce the cross product.
	kb := newTestKB(t)
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/>
SELECT ?x ?y WHERE { ?x a ex:Person . ?y a ex:Student }`)
	c, err := Compile(q.Patterns, kb.d)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Eval(kb.st)
	if len(res.Rows) != 2 { // 2 persons × 1 student
		t.Errorf("cartesian rows = %d, want 2", len(res.Rows))
	}
}

func TestDecode(t *testing.T) {
	kb := newTestKB(t)
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?n WHERE { ex:alice ex:name ?n }`)
	c, err := Compile(q.Patterns, kb.d)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Eval(kb.st)
	rows := res.Decode(kb.d)
	if len(rows) != 1 || rows[0][0] != rdf.NewLiteral("Alice") {
		t.Errorf("Decode = %v", rows)
	}
}

package webreason_test

import (
	"strings"
	"testing"

	webreason "repro"
)

// TestPublicAPITomExample drives the paper's Section I example end to end
// through the façade only — the contract a downstream user relies on.
func TestPublicAPITomExample(t *testing.T) {
	g := webreason.GraphOf(
		webreason.T(webreason.NewIRI("http://ex.org/tom"), webreason.Type, webreason.NewIRI("http://ex.org/Cat")),
		webreason.T(webreason.NewIRI("http://ex.org/Cat"), webreason.SubClassOf, webreason.NewIRI("http://ex.org/Mammal")),
	)
	kb := webreason.NewKB()
	if _, err := kb.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	q, err := webreason.ParseQuery(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Mammal }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"saturation", "reformulation", "backward"} {
		s, err := webreason.NewStrategy(name, kb)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		rows := res.Decode(kb.Dict())
		if len(rows) != 1 || rows[0][0] != webreason.NewIRI("http://ex.org/tom") {
			t.Errorf("%s: mammals = %v, want tom", name, rows)
		}
	}
}

// TestPublicAPIPrepare checks the prepared-query contract through the
// façade for all three strategies: repeated executions agree with the
// one-shot Answer, and updates — including ones that grow the dictionary —
// are visible through an already-prepared query.
func TestPublicAPIPrepare(t *testing.T) {
	ex := func(n string) webreason.Term { return webreason.NewIRI("http://ex.org/" + n) }
	g := webreason.GraphOf(
		webreason.T(ex("tom"), webreason.Type, ex("Cat")),
		webreason.T(ex("Cat"), webreason.SubClassOf, ex("Mammal")),
		webreason.T(ex("rex"), webreason.Type, ex("Dog")),
		webreason.T(ex("Dog"), webreason.SubClassOf, ex("Mammal")),
	)
	kb := webreason.NewKB()
	if _, err := kb.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	q := webreason.MustParseQuery(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Mammal }`)
	for _, name := range []string{"saturation", "reformulation", "backward"} {
		s, err := webreason.NewStrategy(name, kb)
		if err != nil {
			t.Fatal(err)
		}
		pq, err := webreason.Prepare(s, q)
		if err != nil {
			t.Fatalf("%s: Prepare: %v", name, err)
		}
		if pq.Query() != q {
			t.Errorf("%s: Query() does not return the source query", name)
		}
		want, err := s.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			got, err := pq.Answer()
			if err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			if len(got.Sort().Rows) != len(want.Sort().Rows) {
				t.Fatalf("%s round %d: prepared %d rows, direct %d", name, round, len(got.Rows), len(want.Rows))
			}
		}
		// An update with a brand-new term (dictionary growth) must be
		// visible through the existing prepared query.
		if err := s.Insert(webreason.T(ex("whiskers"+name), webreason.Type, ex("Cat"))); err != nil {
			t.Fatal(err)
		}
		got, err := pq.Answer()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != 3 {
			t.Errorf("%s after insert: prepared query sees %d mammals, want 3", name, len(got.Rows))
		}
		ok, err := webreason.Ask(pq.Answer())
		if err != nil || !ok {
			t.Errorf("%s: Ask = %v, %v", name, ok, err)
		}
	}
}

func TestPublicAPITurtleAndThresholds(t *testing.T) {
	g, err := webreason.ParseTurtle(strings.NewReader(`
@prefix ex: <http://ex.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:A rdfs:subClassOf ex:B .
ex:x a ex:A .
`))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("parsed %d triples", g.Len())
	}
	th := webreason.ComputeThresholds(
		webreason.MaintenanceCosts{Saturation: 100},
		webreason.QueryCosts{EvalSaturated: 1, AnswerReformulated: 11},
	)
	if th.Saturation != 10 {
		t.Errorf("threshold = %v, want 10", th.Saturation)
	}
	rec := webreason.Advise(webreason.CostModel{
		Maintenance:        webreason.MaintenanceCosts{Saturation: 100},
		EvalSaturated:      1,
		AnswerReformulated: 11,
	}, webreason.Workload{Queries: 1000})
	if rec.Best != "saturation" {
		t.Errorf("advise = %s", rec.Best)
	}
}

func TestPublicAPILUBM(t *testing.T) {
	g := webreason.LUBMGenerate(1, 1, 3)
	if g.Len() == 0 {
		t.Fatal("empty LUBM generation")
	}
	ont := webreason.LUBMOntology()
	if len(ont.SchemaTriples()) != ont.Len() {
		t.Error("ontology should be pure schema")
	}
	g.AddAll(ont)
	kb := webreason.NewKB()
	if _, err := kb.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	s := webreason.NewBackwardStrategy(kb)
	q := webreason.MustParseQuery(`PREFIX lubm: <http://lubm.example.org/onto#> ASK { ?x a lubm:Person }`)
	yes, err := webreason.Ask(s.Answer(q))
	if err != nil {
		t.Fatal(err)
	}
	if !yes {
		t.Error("no persons in LUBM data")
	}
}

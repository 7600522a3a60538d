package webreason_test

import (
	"path/filepath"
	"strings"
	"testing"

	webreason "repro"
)

func TestFacadeFileRoundTrip(t *testing.T) {
	g := webreason.GraphOf(
		webreason.T(webreason.NewIRI("http://ex.org/a"), webreason.Type, webreason.NewIRI("http://ex.org/C")),
		webreason.T(webreason.NewIRI("http://ex.org/C"), webreason.SubClassOf, webreason.NewIRI("http://ex.org/D")),
	)
	dir := t.TempDir()
	for _, name := range []string{"g.nt", "g.ttl"} {
		path := filepath.Join(dir, name)
		if err := webreason.SaveFile(path, g, map[string]string{"ex": "http://ex.org/"}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := webreason.LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !back.Equal(g) {
			t.Errorf("%s: round trip mismatch", name)
		}
	}
	if _, err := webreason.LoadFile(filepath.Join(dir, "missing.nt")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestFacadeParseNTriples(t *testing.T) {
	g, err := webreason.ParseNTriples(strings.NewReader(
		"<http://ex.org/a> <http://ex.org/p> \"v\" .\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Errorf("len = %d", g.Len())
	}
	want := webreason.T(webreason.NewIRI("http://ex.org/a"), webreason.NewIRI("http://ex.org/p"), webreason.NewLiteral("v"))
	if !g.Has(want) {
		t.Error("triple content wrong")
	}
}

func TestFacadeTermConstructors(t *testing.T) {
	if webreason.NewTypedLiteral("1", "http://www.w3.org/2001/XMLSchema#integer").Datatype == "" {
		t.Error("typed literal lost datatype")
	}
	if webreason.NewLangLiteral("x", "EN").Lang != "en" {
		t.Error("lang literal not normalised")
	}
	if !webreason.NewBlank("b").IsBlank() || !webreason.NewVar("v").IsVar() {
		t.Error("blank/var constructors broken")
	}
	if webreason.NewGraph().Len() != 0 {
		t.Error("NewGraph not empty")
	}
}

func TestFacadeExplain(t *testing.T) {
	kb := webreason.NewKB()
	g := webreason.GraphOf(
		webreason.T(webreason.NewIRI("http://ex.org/tom"), webreason.Type, webreason.NewIRI("http://ex.org/Cat")),
		webreason.T(webreason.NewIRI("http://ex.org/Cat"), webreason.SubClassOf, webreason.NewIRI("http://ex.org/Mammal")),
	)
	if _, err := kb.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	proof, ok := webreason.Explain(kb, webreason.T(
		webreason.NewIRI("http://ex.org/tom"), webreason.Type, webreason.NewIRI("http://ex.org/Mammal")))
	if !ok {
		t.Fatal("entailed triple not explained")
	}
	if !strings.Contains(proof, "rdfs9") || !strings.Contains(proof, "[asserted]") {
		t.Errorf("proof lacks rule/leaf markers:\n%s", proof)
	}
	terms := kb.Dict().Len()
	if _, ok := webreason.Explain(kb, webreason.T(
		webreason.NewIRI("http://ex.org/tom"), webreason.Type, webreason.NewIRI("http://ex.org/Dog"))); ok {
		t.Error("non-entailed triple explained")
	}
	if kb.Dict().Len() != terms {
		t.Errorf("explaining a triple with an unknown term grew the dictionary %d → %d", terms, kb.Dict().Len())
	}
}

func TestFacadeMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseQuery should panic on bad input")
		}
	}()
	webreason.MustParseQuery("NOT A QUERY")
}

func TestFacadeSaturationAndBackwardStrategies(t *testing.T) {
	kb := webreason.NewKB()
	g := webreason.LUBMGenerate(1, 1, 5)
	g.AddAll(webreason.LUBMOntology())
	if _, err := kb.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	q := webreason.MustParseQuery(`PREFIX lubm: <http://lubm.example.org/onto#> SELECT ?x WHERE { ?x a lubm:Faculty }`)
	sat := webreason.NewSaturationStrategy(kb)
	back := webreason.NewBackwardStrategy(kb)
	a, err := sat.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) == 0 || len(a.Rows) != len(b.Rows) {
		t.Errorf("strategy answers differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	// Updates flow through the interface.
	extra := webreason.T(webreason.NewIRI("http://lubm.example.org/data/x"),
		webreason.Type, webreason.NewIRI("http://lubm.example.org/onto#Lecturer"))
	if err := sat.Insert(extra); err != nil {
		t.Fatal(err)
	}
	a2, _ := sat.Answer(q)
	if len(a2.Rows) != len(a.Rows)+1 {
		t.Errorf("insert not reflected: %d vs %d+1", len(a2.Rows), len(a.Rows))
	}
	if err := sat.Delete(extra); err != nil {
		t.Fatal(err)
	}
	a3, _ := sat.Answer(q)
	if len(a3.Rows) != len(a.Rows) {
		t.Errorf("delete not reflected")
	}
}

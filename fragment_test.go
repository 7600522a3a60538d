package webreason_test

import (
	"errors"
	"strings"
	"testing"

	webreason "repro"
	"repro/internal/rdf"
)

// TestOutsideDBFragmentRefused loads graphs that make a built-in property
// the super-property of another property — on which saturation derived an
// answer that reformulation and backward chaining did not — and checks that
// every entry point refuses them with rdf.ErrIllFormed: the Turtle and
// N-Triples parsers, KB.LoadGraph and Server.Insert under each strategy, which
// accepts no triple of the batch.
func TestOutsideDBFragmentRefused(t *testing.T) {
	const prefixes = "@prefix ex: <http://ex.org/> .\n" +
		"@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n" +
		"@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
	ex := func(n string) webreason.Term { return webreason.NewIRI("http://ex.org/" + n) }
	for name, c := range map[string]struct {
		ttl, nt string
		bad     webreason.Triple
	}{
		"rdf:type as super-property": {
			ttl: "ex:p rdfs:subPropertyOf rdf:type . ex:y ex:p ex:A . ex:A rdfs:subClassOf ex:B .",
			nt: "<http://ex.org/p> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> " +
				"<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> .\n",
			bad: webreason.T(ex("p"), webreason.SubPropertyOf, webreason.Type),
		},
		"rdfs:subClassOf as super-property": {
			ttl: "ex:p rdfs:subPropertyOf rdfs:subClassOf . ex:A ex:p ex:B . ex:y a ex:A .",
			nt: "<http://ex.org/p> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> " +
				"<http://www.w3.org/2000/01/rdf-schema#subClassOf> .\n",
			bad: webreason.T(ex("p"), webreason.SubPropertyOf, webreason.SubClassOf),
		},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := webreason.ParseTurtle(strings.NewReader(prefixes + c.ttl)); !errors.Is(err, rdf.ErrIllFormed) {
				t.Errorf("Turtle: err = %v, want rdf.ErrIllFormed", err)
			}
			if _, err := webreason.ParseNTriples(strings.NewReader(c.nt)); !errors.Is(err, rdf.ErrIllFormed) {
				t.Errorf("N-Triples: err = %v, want rdf.ErrIllFormed", err)
			}
			if _, err := webreason.NewKB().LoadGraph(webreason.GraphOf(c.bad)); !errors.Is(err, rdf.ErrIllFormed) {
				t.Errorf("KB.LoadGraph: err = %v, want rdf.ErrIllFormed", err)
			}
			batch := []webreason.Triple{
				webreason.T(ex("y"), ex("p"), ex("A")),
				webreason.T(ex("A"), webreason.SubClassOf, ex("B")),
				c.bad,
			}
			for _, strategy := range serverStrategies {
				srv := newServerFor(t, strategy, webreason.ServerOptions{})
				if err := srv.Insert(batch...); !errors.Is(err, rdf.ErrIllFormed) {
					t.Errorf("%s: Server.Insert: err = %v, want rdf.ErrIllFormed", strategy, err)
				}
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
				q := webreason.MustParseQuery(`PREFIX ex: <http://ex.org/> ASK { ex:y ex:p ex:A }`)
				if ok, err := srv.Ask(q); err != nil || ok {
					t.Errorf("%s: a triple of the refused batch was applied (ask = %v, %v)", strategy, ok, err)
				}
			}
		})
	}
}

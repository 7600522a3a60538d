// Explain: derivation tracing. RDF systems that materialise entailed
// triples (OWLIM, Oracle — §II-C) keep "justifications" to maintain the
// closure and to answer *why* a fact holds. This example asks for proof
// trees over a small academic graph. Each derived fact is one asserted
// triple plus one schema edge, and the proof also shows the chain of
// asserted constraints that edge closes.
package main

import (
	"fmt"
	"log"
	"strings"

	webreason "repro"
)

const data = `
@prefix ex:   <http://uni.example.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

ex:teaches      rdfs:domain ex:Lecturer .
ex:Lecturer     rdfs:subClassOf ex:Staff .
ex:Staff        rdfs:subClassOf ex:Person .
ex:givesLab     rdfs:subPropertyOf ex:teaches .

ex:maria ex:givesLab ex:db101 .
`

func main() {
	g, err := webreason.ParseTurtle(strings.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	kb := webreason.NewKB()
	if _, err := kb.LoadGraph(g); err != nil {
		log.Fatal(err)
	}

	ex := func(n string) webreason.Term { return webreason.NewIRI("http://uni.example.org/" + n) }
	checks := []struct {
		label string
		t     webreason.Triple
	}{
		{"maria teaches db101 (one rdfs7 step)",
			webreason.T(ex("maria"), ex("teaches"), ex("db101"))},
		{"maria is a Lecturer (rdfs2 over a domain inherited by ext-dom-sp)",
			webreason.T(ex("maria"), webreason.Type, ex("Lecturer"))},
		{"maria is a Person (rdfs2 over a domain closed by ext-dom-sp, ext-dom-sc and rdfs11)",
			webreason.T(ex("maria"), webreason.Type, ex("Person"))},
		{"maria is a Course (not entailed)",
			webreason.T(ex("maria"), webreason.Type, ex("Course"))},
	}
	for _, c := range checks {
		fmt.Printf("── why: %s\n", c.label)
		proof, ok := webreason.Explain(kb, c.t)
		if !ok {
			fmt.Println("   not entailed by the graph")
			continue
		}
		for _, line := range strings.Split(strings.TrimRight(proof, "\n"), "\n") {
			fmt.Println("   " + line)
		}
	}
}

package engine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/store"
)

// draws reads fuzz bytes as a stream of small choices; an exhausted stream
// reads as zeros.
type draws []byte

func (b *draws) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// FuzzPlanExec checks a distinct execution against the reference, which
// shares nothing with the engine: the bytes draw a star world (typed nodes
// with a few edges), a BGP of one to three patterns over it — any position a
// variable, so repeated variables and variable predicates occur — and a
// projection, which may name a variable the BGP lacks. The BGP runs on a
// fresh plan twice (its first execution, then a warm one) over the store,
// where a projection of every variable takes no dedup set, and over
// dupSource, where every execution keeps one.
func FuzzPlanExec(f *testing.F) {
	f.Add([]byte{5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 2, 0, 0, 1, 0, 0, 2, 4, 0, 1, 2})
	f.Add([]byte{9, 1, 1, 0, 2, 2, 1, 3, 3, 0, 1, 1, 0, 1, 0, 1, 0, 2, 0, 3, 4, 0, 1, 2, 3})
	f.Add([]byte{3, 2, 2, 2, 2, 2, 2, 2, 2, 0, 0, 0, 1, 1, 1, 2, 3, 3, 0, 3})
	// An existential step: ?x a Class0 . ?x edge0 ?z onto x, where ?z is
	// bound by one pattern and projected away.
	f.Add([]byte{2, 0, 2, 0, 1, 0, 2, 1, 1, 0, 2, 0, 1, 1, 3, 2, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 2, 1, 0})
	// A 4-column projection through a dedup set over the store: ?x ?p ?y .
	// ?y ?p ?z onto x, y, z and an absent variable, over twelve nodes.
	f.Add([]byte{10, 0, 2, 0, 1, 0, 5, 1, 2, 0, 2, 1, 6, 2, 2, 0, 3, 0, 7, 0, 2, 0, 4, 1, 8, 1, 2, 0, 5, 0, 9, 2, 2, 0, 6, 1, 10, 0, 2, 0, 7, 0, 11, 1, 2, 0, 8, 1, 0, 2, 2, 0, 9, 0, 1, 0, 2, 0, 10, 1, 2, 1, 2, 0, 11, 0, 3, 2, 2, 0, 0, 1, 4, 1, 0, 0, 0, 3, 0, 1, 0, 1, 0, 3, 0, 2, 4, 0, 1, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := draws(data)
		iri := func(kind string, i int) rdf.Term {
			return rdf.NewIRI(fmt.Sprintf("http://ex.org/%s%d", kind, i))
		}
		n := 2 + b.next(14)
		var triples []rdf.Triple
		for i := 0; i < n; i++ {
			s := iri("node", i)
			triples = append(triples, rdf.T(s, rdf.Type, iri("Class", b.next(3))))
			for j := b.next(4); j > 0; j-- {
				tr := rdf.T(s, iri("edge", b.next(3)), iri("node", b.next(n)))
				if !slices.Contains(triples, tr) {
					triples = append(triples, tr)
				}
			}
		}
		vars := []rdf.Term{rdf.NewVar("x"), rdf.NewVar("y"), rdf.NewVar("z"), rdf.NewVar("p")}
		term := func(pos int) rdf.Term {
			if b.next(2) == 0 {
				return vars[b.next(len(vars))]
			}
			switch {
			case pos == 1 && b.next(2) == 0:
				return rdf.Type
			case pos == 1:
				return iri("edge", b.next(3))
			case pos == 2 && b.next(2) == 0:
				return iri("Class", b.next(3))
			default:
				// One past the last node: a constant the dictionary lacks.
				return iri("node", b.next(n+1))
			}
		}
		var pats []rdf.Triple
		for i := 1 + b.next(3); i > 0; i-- {
			pats = append(pats, rdf.T(term(0), term(1), term(2)))
		}
		names := []string{"x", "y", "z", "p", "absent"}
		var proj []string
		for i := b.next(5); i > 0; i-- {
			proj = append(proj, names[b.next(len(names))])
		}

		d := dict.New()
		st := store.New()
		for _, tr := range triples {
			st.Add(store.Triple{S: d.Encode(tr.S), P: d.Encode(tr.P), O: d.Encode(tr.O)})
		}
		want := canon(bruteDistinct(bruteEval(triples, pats), bruteVars(pats), proj))
		for _, src := range []Source{st, dupSource{st}} {
			p, err := Prepare(src, pats, d)
			if err != nil {
				t.Fatalf("Prepare(%v): %v", pats, err)
			}
			for _, run := range []string{"first", "warm"} {
				if got := canon(decodeRows(t, p.EvalDistinct(proj), d)); !slices.Equal(got, want) {
					t.Fatalf("%T %s EvalDistinct(%v):\ngot  %v\nwant %v\npatterns: %v", src, run, proj, got, want, pats)
				}
			}
		}
	})
}

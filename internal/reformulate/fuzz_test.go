package reformulate

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/sparql"
)

// fuzzBytes hands out the bytes of a fuzz input, zeros past its end.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// FuzzReformulate decodes a small schema (cycles allowed), a few instance
// triples, a BGP of at most three patterns, which may hold a variable in
// class or property position, and a projection, and checks that the plain
// union, the minimised union and q over reason.Materialize's G∞ return the
// same answers under that projection, and that both unions agree with the
// breadth-first reference (checkAgainstBFS). A projection byte of 0 (the
// default past the input's end) asks SELECT *; any other asks for one to
// five columns, each a variable of the BGP drawn with repetition, so rows that
// differ only outside the projection, or only in a column the rewriting
// fixed to a constant, meet in the union's dedup set, and both of the set's
// layouts, the bitset of one-column rows and the row table of wider ones,
// come up even over two variables. A
// ground BGP projects onto no column at all (SPARQL cannot project a BGP
// with variables onto none).
//
// A schema byte of 128 or more makes a domain or range constraint's class,
// and a class byte of 128 or more a pattern's class, the literal "L": the
// RDFS rules type a property's subjects or objects with a literal class as
// with any other.
//
// The seeds after the first three: two branches whose rows differ only in
// the column they fix (?c of "?x a ?c" over C0 ⊑ C1), projected onto ?c
// alone; a ground query that two branches both answer; the first of them
// projected four wide; and "?x a "L"" over p0 rng "L", p1 dom "L",
// i0 p0 i1 and i2 p1 i3, which has the answers i1 and i2. The last two ask
// "?x a C0 . ?x p0 ?y . ?y a C0" over p0 dom C0, p0 rng C0, i0 p0 i1 and
// i1 p0 i2, under SELECT * and projected onto ?x: the branches that rewrite
// a type atom to (?x p0 ?_f) or (?_f p0 ?y) hold an atom that ?x p0 ?y
// implies, which their cores drop. The next asks "?x ?p ?y . ?x a C1" over
// C0 ⊑ C1, p0 dom C1 and p1 rng C0: fixing ?p to rdf:type puts ?y in class
// position, and fixing ?y to C1 makes the first atom equal to the second,
// which may have been rewritten first. The next asks "?x a C0 . ?x a C1"
// over C0 ⊑ C1, p0 dom C0 and p1 rng C1, whose atoms' rewritings share
// (?x a C0) and (?x p0 ?_f): branches repeat atoms, and one branch is
// reached from several pairs of rewritings. The last asks "?c a ?c . C0 ?p
// C0 . C0 a ?c": fixing ?c to C0 makes the first and third atoms equal
// while both still wait on it, so they become one, while the second, once
// ?p is fixed to rdf:type, may be rewritten before ?c is fixed and stays
// apart.
func FuzzReformulate(f *testing.F) {
	f.Add([]byte{3, 4, 2, 0, 1, 0, 1, 2, 0, 2, 0, 2, 3, 1, 3, 0, 0, 1, 2, 1, 1, 1, 5, 0, 1, 3, 1})
	f.Add([]byte{4, 3, 3, 0, 1, 0, 1, 0, 0, 2, 1, 1, 0, 0, 3, 1, 2, 1, 0, 3, 2, 3, 1, 0, 2, 1, 1, 2, 0})
	f.Add([]byte{6, 8, 3, 1, 2, 2, 2, 1, 3, 0, 0, 1, 1, 1, 0, 3, 3, 2, 0, 1, 4, 1, 2, 3, 5, 2, 0, 1, 2, 3, 1, 4, 0, 2, 1, 3, 0, 4, 2, 1})
	f.Add([]byte{1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 5, 0})
	f.Add([]byte{1, 2, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 4, 0, 0, 0})
	f.Add([]byte{1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 1, 0, 1})
	f.Add([]byte{2, 2, 0, 0, 128, 3, 1, 128, 2, 0, 1, 1, 2, 3, 3, 0, 0, 128, 0, 0})
	f.Add([]byte{2, 2, 2, 0, 0, 2, 0, 0, 3, 0, 1, 1, 1, 2, 1, 0, 0, 0, 0, 0, 1, 0, 2, 1, 0, 0, 0, 0})
	f.Add([]byte{2, 2, 2, 0, 0, 2, 0, 0, 3, 0, 1, 1, 1, 2, 1, 0, 0, 0, 0, 0, 1, 0, 2, 1, 0, 0, 0, 5, 0})
	f.Add([]byte{3, 2, 1, 0, 1, 0, 0, 1, 2, 1, 0, 3, 0, 1, 1, 1, 0, 0, 0, 1, 0, 3, 0, 0, 1, 0, 0})
	f.Add([]byte{3, 2, 1, 0, 1, 0, 0, 0, 2, 1, 1, 3, 0, 1, 1, 2, 0, 3, 0, 0, 0, 0, 0, 0, 1, 0, 0})
	f.Add([]byte("A82002000000000A00800100008"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		nSchema, nInst, nPats := in.next()%7, in.next()%9, 1+in.next()%3
		var lines []string
		for range nSchema {
			a, b := in.next()%4, in.next()
			class := fmt.Sprintf("C%d", b%4)
			if b >= 128 {
				class = `"L"`
			}
			switch in.next() % 4 {
			case 0:
				lines = append(lines, fmt.Sprintf("C%d sco C%d", a, b%4))
			case 1:
				lines = append(lines, fmt.Sprintf("p%d spo p%d", a, b%4))
			case 2:
				lines = append(lines, fmt.Sprintf("p%d dom %s", a, class))
			default:
				lines = append(lines, fmt.Sprintf("p%d rng %s", a, class))
			}
		}
		for range nInst {
			a, b, c := in.next()%4, in.next()%4, in.next()
			if c%2 == 0 {
				lines = append(lines, fmt.Sprintf("i%d a C%d", a, b))
			} else {
				lines = append(lines, fmt.Sprintf("i%d p%d i%d", a, c/2%4, b))
			}
		}
		k := buildKB(t, lines)

		nodes := []string{"?x", "?y", "?c", "?p", "ex:i0", "ex:i1", "ex:C0"}
		var pats []string
		for range nPats {
			s, o, nb := nodes[in.next()%len(nodes)], nodes[in.next()%len(nodes)], in.next()
			n, class := nb%4, fmt.Sprintf("ex:C%d", nb%4)
			if nb >= 128 {
				class = `"L"`
			}
			switch in.next() % 5 {
			case 0:
				pats = append(pats, s+" a "+class)
			case 1:
				pats = append(pats, s+" a ?c")
			case 2:
				pats = append(pats, fmt.Sprintf("%s ex:p%d %s", s, n, o))
			case 3:
				pats = append(pats, s+" ?p "+o)
			default:
				pats = append(pats, fmt.Sprintf("?c <http://www.w3.org/2000/01/rdf-schema#subClassOf> ex:C%d", n))
			}
		}
		where := " WHERE { " + strings.Join(pats, " . ") + " }"
		q, err := sparql.Parse(prefix + "SELECT *" + where)
		if err != nil {
			return // a literal or ill-placed term the generator cannot produce
		}
		qtext := prefix + "SELECT *" + where
		if vars, k := q.PatternVars(), in.next(); k != 0 && len(vars) > 0 {
			sel := "SELECT"
			for range 1 + k%5 {
				sel += " ?" + vars[in.next()%len(vars)]
			}
			qtext = prefix + sel + where
			q = sparql.MustParse(qtext)
		}
		checkAgainstBFS(t, qtext, q, k)
		viaSat, viaRef := k.answers(t, qtext)
		requireEqual(t, qtext+" (plain union)", viaSat, viaRef)
		min, err := Reformulate(q, k.sch, k.d, k.st, Options{Minimize: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := min.Evaluate(k.st, k.d)
		if err != nil {
			t.Fatal(err)
		}
		requireEqual(t, qtext+" (minimised union)", viaSat, rowsToStrings(res, k.d))
	})
}

// checkAgainstBFS checks the rewriter against the breadth-first reference
// (bfsUnion) on q: the plain union has the reference's set of dedup keys,
// and the minimised union as many branches and atoms as minimize keeps of
// the reference's union, each of its branches equivalent, with the same
// fixed bindings, to one the reference keeps.
func checkAgainstBFS(t *testing.T, qtext string, q *sparql.Query, k *kb) {
	t.Helper()
	rewrite := func(minimise bool) ([]branch, *rewriter) {
		r := new(rewriter)
		if err := r.init(q, k.sch, k.d, k.st, 0); err != nil {
			t.Fatal(err)
		}
		brs, err := r.union(minimise)
		if err != nil {
			t.Fatal(err)
		}
		return brs, r
	}
	plain, r := rewrite(false)
	ref, fresh, err := bfsUnion(r)
	if err != nil {
		t.Fatal(err)
	}
	keys := func(brs []branch) []string {
		var out []string
		var key []byte
		var sorted []pattern
		for _, br := range brs {
			key, sorted = appendKey(key[:0], sorted, br.pats, br.fixed)
			out = append(out, string(key))
		}
		slices.Sort(out)
		return out
	}
	if got, want := keys(plain), keys(ref); !slices.Equal(got, want) {
		t.Fatalf("%s: plain union of %d branches, the reference's of %d, with different keys", qtext, len(got), len(want))
	}
	min, rm := rewrite(true)
	var refMin []branch
	for _, i := range minimize(ref, fresh) {
		refMin = append(refMin, ref[i])
	}
	atoms := func(brs []branch) (n int) {
		for _, br := range brs {
			n += len(br.pats)
		}
		return n
	}
	if len(min) != len(refMin) || atoms(min) != atoms(refMin) {
		t.Fatalf("%s: minimised union of %d branches and %d atoms, the reference's of %d and %d",
			qtext, len(min), atoms(min), len(refMin), atoms(refMin))
	}
	h := homomorphism{assign: make([]uint32, max(fresh, int(rm.fresh)))}
	for _, a := range min {
		if !slices.ContainsFunc(refMin, func(b branch) bool {
			return slices.Equal(a.fixed, b.fixed) && h.maps(a.pats, b.pats) && h.maps(b.pats, a.pats)
		}) {
			t.Fatalf("%s: minimised branch %v is equivalent to none the reference keeps", qtext, rm.render(a))
		}
	}
}

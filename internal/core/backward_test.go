package core

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/reason"
	"repro/internal/reformulate"
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
	// Backward chaining's schema answers must coincide with evaluating over
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

// FuzzBackwardSource checks backward chaining's source pattern by pattern
// against reason.Materialize's G∞; no part of the rewriter is in the oracle.
// An input draws a graph, randomGraph at seed, to which the bits of extra
// add a subclass cycle, a subproperty cycle, a property whose range is the
// literal class "L" and one whose domain is, and three of its terms s, p and
// o. It checks sixteen pattern shapes: the subject bound to s or free, the
// object bound to o or free, and the predicate free, rdf:type, a constraint
// property or the regular property p (when G∞ has one). For each, the set of
// triples the source emits must equal the pattern's matches in G∞, Count
// must equal the number of triples emitted when the predicate and class are
// constants, a match call stopped at its first triple must emit no other,
// and all three strategies must answer the pattern, asked as a query, with
// the matches' free positions.
func FuzzBackwardSource(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed, uint8(seed), uint8(3*seed), uint8(seed), uint8(5*seed))
	}
	f.Add(int64(3), uint8(12), uint8(0), uint8(0), uint8(0))
	f.Add(int64(32), uint8(53), uint8(218), uint8(59), uint8(240)) // i5 a B, entailed three ways
	// i0 a ?c: i0 is an instance of a superclass of its asserted type, of a
	// domain of an out-edge's property and of a range of an in-edge's
	// property, each a class no other of these routes gives.
	f.Add(int64(120), uint8(0), uint8(5), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, extra, s, p, o uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		lit := rdf.NewLiteral("L")
		c1, c2, p1, p2, p3, p4 := rc(rng), rc(rng), rp(rng), rp(rng), rp(rng), rp(rng)
		for i, ts := range [][]rdf.Triple{
			{rdf.T(c1, rdf.SubClassOf, c2), rdf.T(c2, rdf.SubClassOf, c1)},
			{rdf.T(p1, rdf.SubPropertyOf, p2), rdf.T(p2, rdf.SubPropertyOf, p1)},
			{rdf.T(p3, rdf.Range, lit)},
			{rdf.T(p4, rdf.Domain, lit)},
		} {
			if extra>>i&1 != 0 {
				for _, tr := range ts {
					g.Add(tr)
				}
			}
		}
		kb := NewKB()
		if _, err := kb.LoadGraph(g); err != nil {
			t.Fatal(err)
		}
		strategies := []Strategy{NewSaturation(kb), NewReformulation(kb, reformulate.Options{}), NewBackward(kb)}
		src := strategies[2].(*Backward).cur.Load().src
		gInf := reason.Materialize(kb.Base(), kb.Rules()).Store()

		// The terms to draw from, in an order that does not depend on IDs.
		voc := kb.Vocab()
		var subjects, objects, props []rdf.Term
		seen := map[dict.ID]bool{}
		gInf.ForEachMatch(store.Triple{}, func(tr store.Triple) bool {
			for k, id := range [3]dict.ID{tr.S, tr.P, tr.O} {
				if seen[id] {
					continue
				}
				seen[id] = true
				term := kb.Dict().MustTerm(id)
				if !term.IsLiteral() {
					subjects = append(subjects, term)
				}
				objects = append(objects, term)
				if k == 1 && id != voc.Type && !voc.IsConstraintProperty(id) {
					props = append(props, term)
				}
			}
			return true
		})
		for _, ts := range [][]rdf.Term{subjects, objects, props} {
			slices.SortFunc(ts, rdf.Term.Compare)
		}
		preds := []rdf.Term{{}, rdf.Type, [4]rdf.Term{rdf.SubClassOf, rdf.SubPropertyOf, rdf.Domain, rdf.Range}[p%4]}
		if len(props) > 0 {
			preds = append(preds, props[int(p)%len(props)])
		}

		for _, pt := range preds {
			for _, st := range []rdf.Term{{}, subjects[int(s)%len(subjects)]} {
				for _, ot := range []rdf.Term{{}, objects[int(o)%len(objects)]} {
					// Variables named in position order, the order SELECT * projects.
					shape := rdf.T(rdf.NewVar("a"), rdf.NewVar("b"), rdf.NewVar("c"))
					var pat store.Triple
					for k, term := range [3]rdf.Term{st, pt, ot} {
						if term.IsZero() {
							continue
						}
						id, _ := kb.Dict().Lookup(term)
						switch k {
						case 0:
							pat.S, shape.S = id, term
						case 1:
							pat.P, shape.P = id, term
						default:
							pat.O, shape.O = id, term
						}
					}
					q := &sparql.Query{Form: sparql.Select, Star: true, Patterns: []rdf.Triple{shape}}
					checkBackwardPattern(t, kb, src, gInf, pat, q, strategies)
				}
			}
		}
	})
}

// checkBackwardPattern makes FuzzBackwardSource's checks for one pattern.
func checkBackwardPattern(t *testing.T, kb *KB, src engine.Source, gInf *store.Store, pat store.Triple, q *sparql.Query, strategies []Strategy) {
	t.Helper()
	want := map[store.Triple]bool{}
	gInf.ForEachMatch(pat, func(tr store.Triple) bool { want[tr] = true; return true })
	got, emitted := map[store.Triple]bool{}, 0
	src.ForEachMatch(pat, func(tr store.Triple) bool {
		got[tr] = true
		emitted++
		return true
	})
	if !maps.Equal(got, want) {
		t.Fatalf("%s: source emits %v, G∞ holds %v", q, decodeAll(kb, got), decodeAll(kb, want))
	}
	if n := src.Count(pat); n != emitted && pat.P != dict.None && (pat.P != kb.Vocab().Type || pat.O != dict.None) {
		t.Errorf("%s: Count %d, %d emitted", q, n, emitted)
	}
	stopped := 0
	src.ForEachMatch(pat, func(store.Triple) bool { stopped++; return false })
	if stopped > 1 {
		t.Errorf("%s: a match call stopped at its first triple emitted %d", q, stopped)
	}
	var rows []string
	for tr := range want {
		var row []string
		for k, id := range [3]dict.ID{tr.S, tr.P, tr.O} {
			if [3]dict.ID{pat.S, pat.P, pat.O}[k] == dict.None {
				row = append(row, kb.Dict().MustTerm(id).String())
			}
		}
		rows = append(rows, strings.Join(row, "|"))
	}
	sort.Strings(rows)
	for _, s := range strategies {
		res, err := s.Answer(q)
		if err != nil {
			t.Fatalf("%s on %s: %v", s.Name(), q, err)
		}
		if got := resultStrings(t, kb, res); !slices.Equal(got, rows) {
			t.Fatalf("%s on %s: %v, G∞ holds %v", s.Name(), q, got, rows)
		}
	}
}

// decodeAll renders a set of encoded triples, sorted.
func decodeAll(kb *KB, set map[store.Triple]bool) []string {
	var out []string
	for tr := range set {
		out = append(out, kb.Decode(tr).String())
	}
	sort.Strings(out)
	return out
}

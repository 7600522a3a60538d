package core

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/persist"
	"repro/internal/rdf"
	"repro/internal/reason"
	"repro/internal/reformulate"
	"repro/internal/sparql"
	"repro/internal/store"
)

const ex = "http://ex.org/"

func iri(n string) rdf.Term { return rdf.NewIRI(ex + n) }

// universityGraph returns the shared test fixture as an rdf.Graph.
func universityGraph() *rdf.Graph {
	return rdf.GraphOf(
		rdf.T(iri("GradStudent"), rdf.SubClassOf, iri("Student")),
		rdf.T(iri("Student"), rdf.SubClassOf, iri("Person")),
		rdf.T(iri("Professor"), rdf.SubClassOf, iri("Person")),
		rdf.T(iri("advises"), rdf.SubPropertyOf, iri("knows")),
		rdf.T(iri("knows"), rdf.Domain, iri("Person")),
		rdf.T(iri("knows"), rdf.Range, iri("Person")),
		rdf.T(iri("advises"), rdf.Domain, iri("Professor")),
		rdf.T(iri("advises"), rdf.Range, iri("GradStudent")),
		rdf.T(iri("smith"), rdf.Type, iri("Professor")),
		rdf.T(iri("jones"), iri("advises"), iri("lee")),
		rdf.T(iri("kim"), rdf.Type, iri("GradStudent")),
		rdf.T(iri("lee"), iri("knows"), iri("kim")),
		rdf.T(iri("pat"), rdf.Type, iri("Person")),
	)
}

func loadKB(t *testing.T) *KB {
	t.Helper()
	kb := NewKB()
	if _, err := kb.LoadGraph(universityGraph()); err != nil {
		t.Fatal(err)
	}
	return kb
}

func allStrategies(t *testing.T, kb *KB) []Strategy {
	t.Helper()
	return []Strategy{
		NewSaturation(kb),
		NewReformulation(kb, reformulate.Options{}),
		NewBackward(kb),
	}
}

func resultStrings(t *testing.T, kb *KB, res *engine.Result) []string {
	t.Helper()
	var out []string
	for _, row := range res.Decode(kb.Dict()) {
		parts := make([]string, len(row))
		for i, term := range row {
			parts[i] = term.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

var agreementQueries = []string{
	`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Person }`,
	`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Student }`,
	`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Professor }`,
	`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:GradStudent }`,
	`PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:knows ?y }`,
	`PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:knows ?y . ?y a ex:Person }`,
	`PREFIX ex: <http://ex.org/> SELECT ?x ?c WHERE { ?x a ?c }`,
	`PREFIX ex: <http://ex.org/> SELECT ?p WHERE { ex:jones ?p ex:lee }`,
	`PREFIX ex: <http://ex.org/> SELECT ?s ?p ?o WHERE { ?s ?p ?o }`,
	`PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> PREFIX ex: <http://ex.org/>
	 SELECT ?c WHERE { ?c rdfs:subClassOf ex:Person }`,
	`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:advises ?y . ?y ex:knows ?z }`,
}

// TestStrategiesAgree is the keystone test: all three techniques must
// compute the same certain answers for every query — the q_ref(G) = q(G∞)
// contract of §II-B, extended to backward chaining.
func TestStrategiesAgree(t *testing.T) {
	kb := loadKB(t)
	strategies := allStrategies(t, kb)
	for _, qtext := range agreementQueries {
		q := sparql.MustParse(qtext)
		var ref []string
		for i, s := range strategies {
			res, err := s.Answer(q)
			if err != nil {
				t.Fatalf("%s / %s: %v", s.Name(), qtext, err)
			}
			got := resultStrings(t, kb, res)
			if i == 0 {
				ref = got
				continue
			}
			if strings.Join(got, "\n") != strings.Join(ref, "\n") {
				t.Errorf("%s disagrees with %s on %s:\n%s: %v\n%s: %v",
					s.Name(), strategies[0].Name(), qtext, strategies[0].Name(), ref, s.Name(), got)
			}
		}
	}
}

// TestStrategiesAgreeOnLiteralClass asks for the members of a literal class,
// which the RDFS rules derive through a range and a domain constraint as
// for any other class: every strategy must find both.
func TestStrategiesAgreeOnLiteralClass(t *testing.T) {
	lit := rdf.NewLiteral("lit")
	kb := NewKB()
	if _, err := kb.LoadGraph(rdf.GraphOf(
		rdf.T(iri("p"), rdf.Range, lit), rdf.T(iri("q"), rdf.Domain, lit),
		rdf.T(iri("a"), iri("p"), iri("b")), rdf.T(iri("c"), iri("q"), iri("d")),
	)); err != nil {
		t.Fatal(err)
	}
	for _, s := range allStrategies(t, kb) {
		got := answers(t, kb, s, `SELECT ?y WHERE { ?y a "lit" }`)
		if want := []string{"<http://ex.org/b>", "<http://ex.org/c>"}; !slices.Equal(got, want) {
			t.Errorf("%s: %v, want %v", s.Name(), got, want)
		}
	}
}

// TestStrategiesAgreeAfterUpdates drives the same update sequence through
// every strategy and re-checks agreement after each step — this exercises
// incremental saturation maintenance against the stateless strategies.
func TestStrategiesAgreeAfterUpdates(t *testing.T) {
	kb := loadKB(t)
	strategies := allStrategies(t, kb)
	steps := []struct {
		name string
		op   string // "insert" or "delete"
		tr   rdf.Triple
	}{
		{"instance insert", "insert", rdf.T(iri("max"), iri("advises"), iri("ana"))},
		{"type insert", "insert", rdf.T(iri("ana"), rdf.Type, iri("Student"))},
		{"schema insert", "insert", rdf.T(iri("Person"), rdf.SubClassOf, iri("Agent"))},
		{"schema insert prop", "insert", rdf.T(iri("mentors"), rdf.SubPropertyOf, iri("advises"))},
		{"instance via new prop", "insert", rdf.T(iri("smith"), iri("mentors"), iri("kim"))},
		{"instance delete", "delete", rdf.T(iri("jones"), iri("advises"), iri("lee"))},
		{"schema delete", "delete", rdf.T(iri("advises"), rdf.SubPropertyOf, iri("knows"))},
		{"type delete", "delete", rdf.T(iri("kim"), rdf.Type, iri("GradStudent"))},
	}
	queries := append([]string{}, agreementQueries...)
	queries = append(queries, `PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Agent }`)

	for _, step := range steps {
		for _, s := range strategies {
			var err error
			if step.op == "insert" {
				err = s.Insert(step.tr)
			} else {
				err = s.Delete(step.tr)
			}
			if err != nil {
				t.Fatalf("%s: %s of %s: %v", step.name, s.Name(), step.tr, err)
			}
		}
		for _, qtext := range queries {
			q := sparql.MustParse(qtext)
			var ref []string
			for i, s := range strategies {
				res, err := s.Answer(q)
				if err != nil {
					t.Fatalf("after %s, %s / %s: %v", step.name, s.Name(), qtext, err)
				}
				got := resultStrings(t, kb, res)
				if i == 0 {
					ref = got
				} else if strings.Join(got, "\n") != strings.Join(ref, "\n") {
					t.Fatalf("after %s, %s disagrees on %s:\nsaturation: %v\n%s: %v",
						step.name, s.Name(), qtext, ref, s.Name(), got)
				}
			}
		}
	}
}

func TestAnswerFindsImplicitAnswers(t *testing.T) {
	kb := loadKB(t)
	for _, s := range allStrategies(t, kb) {
		res, err := s.Answer(sparql.MustParse(
			`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Person }`))
		if err != nil {
			t.Fatal(err)
		}
		got := resultStrings(t, kb, res)
		// jones (domain of advises), lee (range of advises → GradStudent ⊑
		// … ⊑ Person, and knows domain), kim (subclass chain), smith
		// (subclass), pat (explicit). lee also via knows domain.
		want := []string{
			"<http://ex.org/jones>", "<http://ex.org/kim>", "<http://ex.org/lee>",
			"<http://ex.org/pat>", "<http://ex.org/smith>",
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: Person members = %v, want %v", s.Name(), got, want)
		}
	}
}

func TestAskAndLimit(t *testing.T) {
	kb := loadKB(t)
	for _, s := range allStrategies(t, kb) {
		yes, err := Ask(s.Answer(sparql.MustParse(`PREFIX ex: <http://ex.org/> ASK { ex:kim a ex:Person }`)))
		if err != nil {
			t.Fatal(err)
		}
		if !yes {
			t.Errorf("%s: implicit fact not found by ASK", s.Name())
		}
		no, err := Ask(s.Answer(sparql.MustParse(`PREFIX ex: <http://ex.org/> ASK { ex:kim a ex:Professor }`)))
		if err != nil {
			t.Fatal(err)
		}
		if no {
			t.Errorf("%s: ASK found a non-entailed fact", s.Name())
		}
		res, err := s.Answer(sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Person } LIMIT 2`))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 {
			t.Errorf("%s: LIMIT 2 returned %d rows", s.Name(), len(res.Rows))
		}
	}
}

// TestKBGraphRoundTrip also checks the rule set: a new KB and one restored
// from its dictionary and base both carry exactly the RDFS rules, each valid
// — the rules internal/schema closes under, which reformulation and backward
// chaining answer from.
func TestKBGraphRoundTrip(t *testing.T) {
	kb := loadKB(t)
	back := kb.Graph()
	if !back.Equal(universityGraph()) {
		t.Error("KB.Graph() does not round-trip the loaded graph")
	}
	restored := RestoreKB(kb.Dict(), kb.Base())
	if !restored.Graph().Equal(universityGraph()) {
		t.Error("RestoreKB does not round-trip the loaded graph")
	}
	for name, k := range map[string]*KB{"NewKB": kb, "RestoreKB": restored} {
		if !reflect.DeepEqual(k.Rules(), reason.RDFSRules(k.Vocab())) {
			t.Errorf("%s: rule set is not reason.RDFSRules", name)
		}
		for i := range k.Rules() {
			if err := k.Rules()[i].Validate(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

func TestNewStrategyFactory(t *testing.T) {
	kb := loadKB(t)
	for _, name := range []string{"saturation", "reformulation", "backward"} {
		s, err := NewStrategy(name, kb)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("strategy name %q != %q", s.Name(), name)
		}
	}
	if _, err := NewStrategy("magic", kb); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestNewStrategyReformulationMinimises pins that the by-name constructor
// builds the minimised union, on a query whose plain union has a subsumed
// branch.
func TestNewStrategyReformulationMinimises(t *testing.T) {
	kb := loadKB(t)
	q := sparql.MustParse("PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Person . ?x ex:knows ?y }")
	size := func(s Strategy) int {
		t.Helper()
		ucq, err := s.(*Reformulation).Reformulate(q)
		if err != nil {
			t.Fatal(err)
		}
		return ucq.Size()
	}
	named, err := NewStrategy("reformulation", kb)
	if err != nil {
		t.Fatal(err)
	}
	plain := size(NewReformulation(kb, reformulate.Options{}))
	minimised := size(NewReformulation(kb, reformulate.Options{Minimize: true}))
	if minimised >= plain {
		t.Fatalf("fixture query has no subsumed branch: plain %d, minimised %d", plain, minimised)
	}
	if got := size(named); got != minimised {
		t.Errorf(`NewStrategy("reformulation") union has %d branches, want the minimised %d (plain %d)`, got, minimised, plain)
	}
}

// TestLUBMUnionSizes pins the size of the union each of the 14 LUBM queries
// rewrites to, minimised and not, at SmallConfig, and the number of atoms
// over all branches of the minimised one: the rewriting depends on the
// schema and the vocabulary G uses, not on the scale. A rewriter that
// loses deduplication grows the plain unions; one that loses subsumption
// grows the minimised ones, and one that loses branch cores their atoms,
// whether the rewriter minimises or UCQ.Minimize does it on the plain
// union's terms.
func TestLUBMUnionSizes(t *testing.T) {
	kb := NewKB()
	if _, err := kb.LoadGraph(lubm.GenerateWithOntology(lubm.SmallConfig())); err != nil {
		t.Fatal(err)
	}
	wantPlain := []int{1, 15, 4, 14, 75, 5, 5, 15, 55, 5, 1, 4, 100, 1}
	wantMin := []int{1, 15, 1, 8, 3, 5, 1, 15, 1, 1, 1, 3, 4, 1}
	wantAtoms := []int{2, 45, 1, 23, 3, 5, 2, 60, 3, 1, 3, 5, 4, 1}
	atoms := func(u *reformulate.UCQ) int {
		n := 0
		for _, b := range u.Branches {
			n += len(b.Patterns)
		}
		return n
	}
	plain := NewReformulation(kb, reformulate.Options{})
	minimised := NewReformulation(kb, reformulate.Options{Minimize: true})
	for i, wq := range lubm.Queries() {
		q := wq.Parse()
		p, err := plain.Reformulate(q)
		if err != nil {
			t.Fatal(err)
		}
		m, err := minimised.Reformulate(q)
		if err != nil {
			t.Fatal(err)
		}
		pm := p.Minimize()
		if p.Size() != wantPlain[i] || m.Size() != wantMin[i] || pm.Size() != wantMin[i] {
			t.Errorf("%s: unions of %d, %d minimised, %d minimised from terms; want %d, %d, %d",
				wq.Name, p.Size(), m.Size(), pm.Size(), wantPlain[i], wantMin[i], wantMin[i])
		}
		if atoms(m) != wantAtoms[i] || atoms(pm) != wantAtoms[i] {
			t.Errorf("%s: minimised unions of %d atoms, %d from terms; want %d", wq.Name, atoms(m), atoms(pm), wantAtoms[i])
		}
	}
}

// TestMaxBranchesCountsBuiltBranches caps LUBM Q5's union at 10 branches,
// at SmallConfig: the cap counts the branches the rewriter builds, so the
// minimised rewriting, which builds the 3 it keeps, fits, and the plain one,
// 75 branches, does not.
func TestMaxBranchesCountsBuiltBranches(t *testing.T) {
	kb := NewKB()
	if _, err := kb.LoadGraph(lubm.GenerateWithOntology(lubm.SmallConfig())); err != nil {
		t.Fatal(err)
	}
	q := lubm.QueryByName("Q5").Parse()
	u, err := NewReformulation(kb, reformulate.Options{MaxBranches: 10, Minimize: true}).Reformulate(q)
	if err != nil || u.Size() != 3 {
		t.Fatalf("minimised under a cap of 10: %v, %v; want 3 branches", u, err)
	}
	if _, err := NewReformulation(kb, reformulate.Options{MaxBranches: 10}).Reformulate(q); !errors.Is(err, reformulate.ErrTooLarge) {
		t.Fatalf("plain under a cap of 10: error %v, want ErrTooLarge", err)
	}
}

func TestStrategyLenSemantics(t *testing.T) {
	kb := loadKB(t)
	sat := NewSaturation(kb)
	ref := NewReformulation(kb, reformulate.Options{})
	back := NewBackward(kb)
	if sat.Len() <= kb.Len() {
		t.Errorf("saturation Len %d should exceed base %d (derived triples)", sat.Len(), kb.Len())
	}
	if ref.Len() <= kb.Len() || ref.Len() > sat.Len() {
		t.Errorf("reformulation Len %d should be base + the closure triples base lacks (base %d, sat %d)",
			ref.Len(), kb.Len(), sat.Len())
	}
	if back.Len() != ref.Len() {
		t.Errorf("backward Len %d should equal reformulation's %d: both store G with its schema closed", back.Len(), ref.Len())
	}
}

// TestLoadGraphIllFormedAddsNothing: a graph with one ill-formed triple is
// refused whole — nothing reaches the base or the dictionary, into a loaded
// KB or an empty one — and a second load into a non-empty KB counts only
// the triples it adds.
func TestLoadGraphIllFormedAddsNothing(t *testing.T) {
	bad := rdf.GraphOf(
		rdf.T(iri("new1"), iri("p"), iri("new2")),
		rdf.T(iri("new3"), iri("q"), rdf.NewLiteral("new4")),
		rdf.T(rdf.NewLiteral("x"), iri("p"), iri("new5")),
	)
	for name, kb := range map[string]*KB{"loaded": loadKB(t), "empty": NewKB()} {
		n, d := kb.Len(), kb.Dict().Len()
		if _, err := kb.LoadGraph(bad); !errors.Is(err, rdf.ErrIllFormed) {
			t.Fatalf("%s: LoadGraph error = %v, want rdf.ErrIllFormed", name, err)
		}
		if kb.Len() != n || kb.Dict().Len() != d {
			t.Fatalf("%s: failed load changed Len %d → %d, dictionary %d → %d", name, n, kb.Len(), d, kb.Dict().Len())
		}
	}
	kb := loadKB(t)
	n := kb.Len()
	more := rdf.GraphOf(
		rdf.T(iri("smith"), rdf.Type, iri("Professor")), // already asserted
		rdf.T(iri("kim"), iri("knows"), iri("pat")),
		rdf.T(iri("pat"), iri("knows"), iri("kim")),
	)
	if added, err := kb.LoadGraph(more); err != nil || added != 2 || kb.Len() != n+2 {
		t.Fatalf("second LoadGraph = (%d, %v), Len %d → %d; want 2 new triples", added, err, n, kb.Len())
	}
}

// TestRestoreStrategyMatchesFreshBuild restores each strategy from each
// snapshot shape — the saturation's (G, G∞) and G alone — and requires its
// durable state to encode byte for byte like that of the same strategy built
// fresh from the KB.
func TestRestoreStrategyMatchesFreshBuild(t *testing.T) {
	kb := loadKB(t)
	mat := reason.Materialize(kb.Base(), kb.Rules())
	shapes := map[string]func() *persist.LoadedState{
		"G and G∞": func() *persist.LoadedState {
			return &persist.LoadedState{Dict: kb.Dict(), BaseSet: mat.BaseSet().Clone(), Saturated: mat.Store().Clone()}
		},
		"G": func() *persist.LoadedState {
			return &persist.LoadedState{Dict: kb.Dict(), BaseSet: kb.Base().CloneSet()}
		},
	}
	for _, name := range []string{"saturation", "reformulation", "backward"} {
		fresh, err := NewStrategy(name, kb)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.DurableState()
		for shape, ls := range shapes {
			_, s, err := RestoreStrategy(name, ls())
			if err != nil {
				t.Fatalf("%s from %s: %v", name, shape, err)
			}
			got := s.DurableState()
			for _, part := range []struct {
				what      string
				got, want store.BinaryView
			}{{"BaseSet", got.BaseSet, want.BaseSet}, {"Saturated", got.Saturated, want.Saturated}} {
				if encode(t, part.got) != encode(t, part.want) {
					t.Errorf("%s from %s: %s differs from a fresh build's", name, shape, part.what)
				}
			}
		}
	}
}

// TestCheckpointBaseIsOneShape pins the one persisted shape of G: for the
// same G, the base sections a checkpoint writes for saturation,
// reformulation and backward chaining are the same bytes — when built, and
// again after each step of the same updates went through each strategy —
// and each checkpoint, restored by RestoreStrategy, answers the schema-level
// queries as the live strategy does. The steps include asserting a
// constraint the closed schema already entails, retracting it while it is
// still entailed, and then retracting its support: G's closed schema holds
// the entailed triple throughout the first two, its checkpoint only while it
// is asserted.
func TestCheckpointBaseIsOneShape(t *testing.T) {
	kb := loadKB(t)
	var strats []Strategy
	for _, name := range []string{"saturation", "reformulation", "backward"} {
		s, err := NewStrategy(name, kb)
		if err != nil {
			t.Fatal(err)
		}
		strats = append(strats, s)
	}
	check := func(when string) {
		t.Helper()
		want := encode(t, strats[0].DurableState().BaseSet)
		for _, s := range strats {
			st := s.DurableState()
			if got := encode(t, st.BaseSet); got != want {
				t.Errorf("%s: %s writes a base section of %d bytes that differs from saturation's %d", when, s.Name(), len(got), len(want))
			}
			ls := &persist.LoadedState{Dict: st.Dict}
			var err error
			if ls.BaseSet, err = store.ReadSetBinary([]byte(encode(t, st.BaseSet)), dict.None); err != nil {
				t.Fatal(err)
			}
			if st.Saturated != nil {
				if ls.Saturated, err = store.ReadBinary([]byte(encode(t, st.Saturated))); err != nil {
					t.Fatal(err)
				}
			}
			_, restored, err := RestoreStrategy(s.Name(), ls)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range schemaQueries {
				live, err := s.Answer(q)
				if err != nil {
					t.Fatal(err)
				}
				back, err := restored.Answer(q)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := resultStrings(t, kb, back), resultStrings(t, kb, live); !slices.Equal(got, want) {
					t.Errorf("%s: %s restored from its checkpoint answers %s with %v, live %v", when, s.Name(), q, got, want)
				}
			}
		}
	}
	check("built")
	entailed := rdf.T(iri("GradStudent"), rdf.SubClassOf, iri("Person"))
	for _, step := range []struct {
		when string
		run  func(s Strategy) error
	}{
		{"after updates", func(s Strategy) error {
			if err := s.Insert(rdf.T(iri("kim"), rdf.Type, iri("Professor")), rdf.T(iri("kim"), iri("knows"), iri("smith")),
				rdf.T(iri("Dean"), rdf.SubClassOf, iri("Professor"))); err != nil {
				return err
			}
			return s.Delete(rdf.T(iri("smith"), rdf.Type, iri("Professor")))
		}},
		{"after asserting an entailed constraint", func(s Strategy) error { return s.Insert(entailed) }},
		{"after retracting it while entailed", func(s Strategy) error { return s.Delete(entailed) }},
		{"after retracting its support", func(s Strategy) error {
			return s.Delete(rdf.T(iri("Student"), rdf.SubClassOf, iri("Person")))
		}},
	} {
		for _, s := range strats {
			if err := step.run(s); err != nil {
				t.Fatal(err)
			}
		}
		check(step.when)
	}
}

// encode returns v's binary encoding, "<nil>" for a nil view.
func encode(t *testing.T, v store.BinaryView) string {
	t.Helper()
	if v == nil || reflect.ValueOf(v).IsNil() {
		return "<nil>"
	}
	var buf bytes.Buffer
	if err := v.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

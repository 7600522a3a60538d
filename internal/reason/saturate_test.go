package reason

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/lubm"
	"repro/internal/rdf"
	"repro/internal/schema"
	"repro/internal/store"
)

// env bundles a dictionary, vocabulary and helpers shared by the tests.
type env struct {
	d   *dict.Dict
	voc schema.Vocab
}

func newEnv() *env {
	d := dict.New()
	return &env{d: d, voc: schema.NewVocab(d)}
}

func (e *env) id(name string) dict.ID {
	return e.d.Encode(rdf.NewIRI("http://ex.org/" + name))
}

func (e *env) tr(s, p, o string) store.Triple {
	pid := e.id(p)
	switch p {
	case "type":
		pid = e.voc.Type
	case "sco":
		pid = e.voc.SubClassOf
	case "spo":
		pid = e.voc.SubPropertyOf
	case "dom":
		pid = e.voc.Domain
	case "rng":
		pid = e.voc.Range
	}
	return store.Triple{S: e.id(s), P: pid, O: e.id(o)}
}

func (e *env) storeOf(ts ...store.Triple) *store.Store {
	st := store.New()
	for _, t := range ts {
		st.Add(t)
	}
	return st
}

// tomGraph is the paper's Section I example: Tom is a cat, cats are mammals.
func (e *env) tomGraph() *store.Store {
	return e.storeOf(
		e.tr("tom", "type", "Cat"),
		e.tr("Cat", "sco", "Mammal"),
	)
}

func TestRulesValidate(t *testing.T) {
	e := newEnv()
	for _, r := range RDFSRules(e.voc) {
		if err := r.Validate(); err != nil {
			t.Errorf("rule %s invalid: %v", r.Name, err)
		}
	}
}

func TestValidateCatchesBadRules(t *testing.T) {
	bad := []Rule{
		{Name: "unsafe", Premises: [2]Pattern{{S: V(0), P: V(1), O: V(2)}, {S: V(0), P: V(1), O: V(2)}},
			Conclusion: Pattern{S: V(3), P: V(1), O: V(2)}, NVars: 4},
		{Name: "out-of-range", Premises: [2]Pattern{{S: V(5), P: V(1), O: V(2)}, {S: V(0), P: V(1), O: V(2)}},
			Conclusion: Pattern{S: V(0), P: V(1), O: V(2)}, NVars: 3},
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("rule %s should fail validation", r.Name)
		}
	}
}

// TestFigure2RuleSelection checks that the rule set carries the four
// instance rules of the paper's Figure 2 beside the schema-closure rules,
// each documented.
func TestFigure2RuleSelection(t *testing.T) {
	e := newEnv()
	byName := map[string]Rule{}
	for _, r := range RDFSRules(e.voc) {
		byName[r.Name] = r
		if r.Doc == "" {
			t.Errorf("rule %s has no doc string", r.Name)
		}
	}
	for _, name := range []string{"rdfs9", "rdfs7", "rdfs2", "rdfs3"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("Figure 2 rule %s missing from RDFSRules", name)
		}
	}
}

func TestSaturateTomExample(t *testing.T) {
	// "Tom is a cat" + "any cat is a mammal" must entail "Tom is a mammal"
	// (rdfs9) — the motivating example of Section I.
	e := newEnv()
	m := Materialize(e.tomGraph(), RDFSRules(e.voc))
	if !m.Store().Contains(e.tr("tom", "type", "Mammal")) {
		t.Fatal("saturation missed: tom rdf:type Mammal")
	}
	if m.BaseLen() != 2 || m.DerivedLen() != 1 {
		t.Errorf("base=%d derived=%d, want 2 and 1", m.BaseLen(), m.DerivedLen())
	}
	if m.IsBase(e.tr("tom", "type", "Mammal")) {
		t.Error("derived triple flagged as base")
	}
	if !m.IsBase(e.tr("tom", "type", "Cat")) {
		t.Error("base triple not flagged as base")
	}
}

func TestSaturateEachRule(t *testing.T) {
	e := newEnv()
	rules := RDFSRules(e.voc)
	cases := []struct {
		name string
		in   []store.Triple
		want []store.Triple
	}{
		{"rdfs9", []store.Triple{e.tr("C1", "sco", "C2"), e.tr("x", "type", "C1")},
			[]store.Triple{e.tr("x", "type", "C2")}},
		{"rdfs7", []store.Triple{e.tr("p1", "spo", "p2"), e.tr("x", "p1", "y")},
			[]store.Triple{e.tr("x", "p2", "y")}},
		{"rdfs2", []store.Triple{e.tr("p", "dom", "C"), e.tr("x", "p", "y")},
			[]store.Triple{e.tr("x", "type", "C")}},
		{"rdfs3", []store.Triple{e.tr("p", "rng", "C"), e.tr("x", "p", "y")},
			[]store.Triple{e.tr("y", "type", "C")}},
		{"rdfs5", []store.Triple{e.tr("p1", "spo", "p2"), e.tr("p2", "spo", "p3")},
			[]store.Triple{e.tr("p1", "spo", "p3")}},
		{"rdfs11", []store.Triple{e.tr("C1", "sco", "C2"), e.tr("C2", "sco", "C3")},
			[]store.Triple{e.tr("C1", "sco", "C3")}},
		{"ext-dom-sp", []store.Triple{e.tr("p1", "spo", "p2"), e.tr("p2", "dom", "C")},
			[]store.Triple{e.tr("p1", "dom", "C")}},
		{"ext-rng-sp", []store.Triple{e.tr("p1", "spo", "p2"), e.tr("p2", "rng", "C")},
			[]store.Triple{e.tr("p1", "rng", "C")}},
		{"ext-dom-sc", []store.Triple{e.tr("p", "dom", "C1"), e.tr("C1", "sco", "C2")},
			[]store.Triple{e.tr("p", "dom", "C2")}},
		{"ext-rng-sc", []store.Triple{e.tr("p", "rng", "C1"), e.tr("C1", "sco", "C2")},
			[]store.Triple{e.tr("p", "rng", "C2")}},
	}
	for _, c := range cases {
		m := Materialize(e.storeOf(c.in...), rules)
		for _, w := range c.want {
			if !m.Store().Contains(w) {
				t.Errorf("%s: missing conclusion %v", c.name, w)
			}
		}
	}
}

func TestSaturateMultiStepChain(t *testing.T) {
	// Deep chain: x:type C0, C0 ⊑ C1 ⊑ ... ⊑ C9; all ten types derived, and
	// the schema closure contains all subclass pairs.
	e := newEnv()
	st := store.New()
	st.Add(e.tr("x", "type", "C0"))
	names := []string{"C0", "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9"}
	for i := 0; i+1 < len(names); i++ {
		st.Add(e.tr(names[i], "sco", names[i+1]))
	}
	m := Materialize(st, RDFSRules(e.voc))
	for _, c := range names {
		if !m.Store().Contains(e.tr("x", "type", c)) {
			t.Errorf("missing x type %s", c)
		}
	}
	// Transitive schema closure: C0 ⊑ C9.
	if !m.Store().Contains(e.tr("C0", "sco", "C9")) {
		t.Error("missing transitive subclass edge C0 ⊑ C9")
	}
	// Expected closure size: 10 type triples + C(10,2)=45 subclass pairs.
	if got := m.Store().Len(); got != 10+45 {
		t.Errorf("closure size = %d, want 55", got)
	}
}

func TestSaturateInteractionDomainSubproperty(t *testing.T) {
	// p1 ⊑ p2, p2 domain C, x p1 y ⇒ x type C — requires either ext-dom-sp
	// then rdfs2, or rdfs7 then rdfs2; both paths must land on the same
	// closure.
	e := newEnv()
	m := Materialize(e.storeOf(
		e.tr("p1", "spo", "p2"),
		e.tr("p2", "dom", "C"),
		e.tr("x", "p1", "y"),
	), RDFSRules(e.voc))
	for _, w := range []store.Triple{
		e.tr("x", "p2", "y"),
		e.tr("x", "type", "C"),
		e.tr("p1", "dom", "C"),
	} {
		if !m.Store().Contains(w) {
			t.Errorf("missing %v", w)
		}
	}
}

func TestSaturationIsIdempotentAndMonotone(t *testing.T) {
	e := newEnv()
	g := e.tomGraph()
	m1 := Materialize(g, RDFSRules(e.voc))
	m2 := Materialize(m1.Store(), RDFSRules(e.voc))
	if m1.Store().Len() != m2.Store().Len() {
		t.Errorf("saturating a saturation changed size: %d -> %d", m1.Store().Len(), m2.Store().Len())
	}
	if m2.Stats.Derived != 0 {
		t.Errorf("re-saturation derived %d new triples, want 0", m2.Stats.Derived)
	}
	// Monotone: input preserved.
	g.ForEachMatch(store.Triple{}, func(tr store.Triple) bool {
		if !m1.Store().Contains(tr) {
			t.Errorf("input triple %v lost", tr)
		}
		return true
	})
}

func TestInsertMatchesResaturation(t *testing.T) {
	e := newEnv()
	base := []store.Triple{
		e.tr("Student", "sco", "Person"),
		e.tr("advises", "spo", "knows"),
		e.tr("advises", "dom", "Professor"),
		e.tr("advises", "rng", "Student"),
		e.tr("Professor", "sco", "Person"),
		e.tr("a", "advises", "b"),
	}
	inserts := [][]store.Triple{
		{e.tr("c", "advises", "d")},                            // instance insert
		{e.tr("c", "type", "Student")},                         // type insert
		{e.tr("Person", "sco", "Agent")},                       // schema insert
		{e.tr("knows", "dom", "Person")},                       // schema insert (domain)
		{e.tr("e", "advises", "f"), e.tr("f", "type", "Dean")}, // batch
	}
	rules := RDFSRules(e.voc)
	m := Materialize(e.storeOf(base...), rules)
	all := append([]store.Triple{}, base...)
	for _, batch := range inserts {
		m.Insert(batch...)
		all = append(all, batch...)
		want := genericMaterialize(e.storeOf(all...), rules)
		if !storesEqual(m.Store(), want.Store()) {
			t.Fatalf("after inserting %v: incremental store (%d triples) != resaturation (%d triples)",
				batch, m.Store().Len(), want.Store().Len())
		}
	}
}

func TestInsertDuplicateIsNoop(t *testing.T) {
	e := newEnv()
	m := Materialize(e.tomGraph(), RDFSRules(e.voc))
	before := m.Store().Len()
	if n := m.Insert(e.tr("tom", "type", "Cat")); n != 0 {
		t.Errorf("Insert of existing base triple reported %d new", n)
	}
	// Inserting an already-derived triple as base must keep the store
	// unchanged but record the base status.
	if n := m.Insert(e.tr("tom", "type", "Mammal")); n != 1 {
		t.Errorf("Insert of derived-but-new-base triple reported %d, want 1", n)
	}
	if m.Store().Len() != before {
		t.Errorf("store size changed from %d to %d", before, m.Store().Len())
	}
	if !m.IsBase(e.tr("tom", "type", "Mammal")) {
		t.Error("triple should now be base")
	}
}

func storesEqual(a, b *store.Store) bool {
	if a.Len() != b.Len() {
		return false
	}
	equal := true
	a.ForEachMatch(store.Triple{}, func(t store.Triple) bool {
		if !b.Contains(t) {
			equal = false
			return false
		}
		return true
	})
	return equal
}

func TestDeleteInstanceTriple(t *testing.T) {
	e := newEnv()
	m := Materialize(e.tomGraph(), RDFSRules(e.voc))
	if n := m.Delete(e.tr("tom", "type", "Cat")); n != 1 {
		t.Fatalf("Delete returned %d, want 1", n)
	}
	if m.Store().Contains(e.tr("tom", "type", "Mammal")) {
		t.Error("derived triple survived deletion of its only support")
	}
	if m.Store().Contains(e.tr("tom", "type", "Cat")) {
		t.Error("deleted base triple still present")
	}
	if !m.Store().Contains(e.tr("Cat", "sco", "Mammal")) {
		t.Error("unrelated schema triple was lost")
	}
}

func TestDeleteKeepsMultiplySupportedTriples(t *testing.T) {
	// tom type Mammal is supported both via Cat ⊑ Mammal and via
	// explicit assertion; deleting the Cat path must keep it.
	e := newEnv()
	st := e.tomGraph()
	st.Add(e.tr("tom", "type", "Mammal")) // explicitly asserted too
	m := Materialize(st, RDFSRules(e.voc))
	m.Delete(e.tr("tom", "type", "Cat"))
	if !m.Store().Contains(e.tr("tom", "type", "Mammal")) {
		t.Error("explicitly asserted triple deleted by maintenance")
	}
}

func TestDeleteRederivesThroughAlternatePath(t *testing.T) {
	// x type C derivable via two properties; deleting one leaves the other.
	e := newEnv()
	st := e.storeOf(
		e.tr("p", "dom", "C"),
		e.tr("q", "dom", "C"),
		e.tr("x", "p", "y"),
		e.tr("x", "q", "z"),
	)
	m := Materialize(st, RDFSRules(e.voc))
	m.Delete(e.tr("x", "p", "y"))
	if !m.Store().Contains(e.tr("x", "type", "C")) {
		t.Error("triple with surviving alternate derivation was lost")
	}
	m.Delete(e.tr("x", "q", "z"))
	if m.Store().Contains(e.tr("x", "type", "C")) {
		t.Error("triple with no remaining derivation survived")
	}
}

func TestDeleteSchemaTriple(t *testing.T) {
	// Deleting C1 ⊑ C2 from a chain C0 ⊑ C1 ⊑ C2 must remove the entailed
	// C0 ⊑ C2 and the propagated instance types, but keep what C0 ⊑ C1
	// still justifies.
	e := newEnv()
	st := e.storeOf(
		e.tr("C0", "sco", "C1"),
		e.tr("C1", "sco", "C2"),
		e.tr("x", "type", "C0"),
	)
	m := Materialize(st, RDFSRules(e.voc))
	for _, w := range []store.Triple{e.tr("x", "type", "C1"), e.tr("x", "type", "C2"), e.tr("C0", "sco", "C2")} {
		if !m.Store().Contains(w) {
			t.Fatalf("setup: missing %v", w)
		}
	}
	m.Delete(e.tr("C1", "sco", "C2"))
	if m.Store().Contains(e.tr("x", "type", "C2")) || m.Store().Contains(e.tr("C0", "sco", "C2")) {
		t.Error("triples depending only on the deleted schema edge survived")
	}
	if !m.Store().Contains(e.tr("x", "type", "C1")) {
		t.Error("x type C1 should survive (justified by C0 ⊑ C1)")
	}
}

func TestDeleteMatchesResaturation(t *testing.T) {
	// Randomised-ish scenario: delete each base triple in turn from a graph
	// with interleaved derivations and compare against full resaturation.
	e := newEnv()
	base := []store.Triple{
		e.tr("GradStudent", "sco", "Student"),
		e.tr("Student", "sco", "Person"),
		e.tr("Professor", "sco", "Person"),
		e.tr("advises", "spo", "knows"),
		e.tr("knows", "dom", "Person"),
		e.tr("advises", "rng", "GradStudent"),
		e.tr("a", "advises", "b"),
		e.tr("b", "type", "GradStudent"),
		e.tr("a", "type", "Professor"),
		e.tr("c", "knows", "a"),
	}
	rules := RDFSRules(e.voc)
	for i := range base {
		m := Materialize(e.storeOf(base...), rules)
		m.Delete(base[i])
		remaining := append(append([]store.Triple{}, base[:i]...), base[i+1:]...)
		want := genericMaterialize(e.storeOf(remaining...), rules)
		if !storesEqual(m.Store(), want.Store()) {
			t.Errorf("deleting %v: maintained result (%d) differs from resaturation (%d)",
				base[i], m.Store().Len(), want.Store().Len())
		}
	}
}

// TestMaintenanceRandomisedAgainstResaturation drives seeded streams of
// instance and schema inserts and deletes — single triples and small
// batches, cyclic subClassOf/subPropertyOf edges, domain/range on
// sub-properties — through one Materialization and, after every step,
// compares the maintained store with the generic engine's saturation of the
// tracked base. Seeds 1–3 draw from 4 subjects, so every type or property
// run holds one or two IDs; seeds 4–6 draw from 40 and start with 80 more
// instance triples, so that a schema deletion's set-at-a-time decisions
// gallop through runs of dozens of IDs and cross their boundaries.
func TestMaintenanceRandomisedAgainstResaturation(t *testing.T) {
	classes := []string{"A", "B", "C", "D"}
	props := []string{"p", "q", "r"}
	for _, run := range []struct {
		seed            int64
		subjects, extra int
	}{{1, 4, 0}, {2, 4, 0}, {3, 4, 0}, {4, 40, 80}, {5, 40, 80}, {6, 40, 80}} {
		seed := run.seed
		subjects := make([]string, run.subjects)
		for i := range subjects {
			subjects[i] = "s" + strconv.Itoa(i+1)
		}
		e := newEnv()
		rules := RDFSRules(e.voc)
		rng := rand.New(rand.NewSource(seed))
		pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
		randTriple := func() store.Triple {
			switch rng.Intn(8) {
			case 0:
				return e.tr(pick(classes), "sco", pick(classes))
			case 1:
				return e.tr(pick(props), "spo", pick(props))
			case 2:
				return e.tr(pick(props), "dom", pick(classes))
			case 3:
				return e.tr(pick(props), "rng", pick(classes))
			case 4, 5:
				return e.tr(pick(subjects), "type", pick(classes))
			default:
				return e.tr(pick(subjects), pick(props), pick(subjects))
			}
		}
		// Start from a schema with a subClassOf and a subPropertyOf cycle and
		// domain/range on a sub-property, so deletes cut cycles from step 0.
		start := []store.Triple{
			e.tr("A", "sco", "B"), e.tr("B", "sco", "A"), e.tr("B", "sco", "C"),
			e.tr("p", "spo", "q"), e.tr("q", "spo", "p"), e.tr("q", "spo", "r"),
			e.tr("p", "dom", "D"), e.tr("q", "rng", "C"),
			e.tr("s1", "p", "s2"), e.tr("s3", "type", "A"),
		}
		for len(start) < 10+run.extra {
			if tr := randTriple(); !e.voc.IsConstraintProperty(tr.P) {
				start = append(start, tr)
			}
		}
		m := Materialize(e.storeOf(start...), rules)
		current := map[store.Triple]struct{}{}
		for _, tr := range start {
			current[tr] = struct{}{}
		}
		schemaSteps := 0
		for step := 0; step < 150; step++ {
			batch := make([]store.Triple, 1+rng.Intn(3))
			for i := range batch {
				batch[i] = randTriple()
				if e.voc.IsConstraintProperty(batch[i].P) {
					schemaSteps++
				}
			}
			insert := rng.Intn(2) == 0
			if insert {
				m.Insert(batch...)
				for _, tr := range batch {
					current[tr] = struct{}{}
				}
			} else {
				m.Delete(batch...)
				for _, tr := range batch {
					delete(current, tr)
				}
			}
			base := store.New()
			for tr := range current {
				base.Add(tr)
			}
			want := genericMaterialize(base, rules)
			if !storesEqual(m.Store(), want.Store()) || m.BaseLen() != len(current) {
				t.Fatalf("seed %d step %d (insert=%v %v): maintained store %d triples, base %d; resaturation %d triples, base %d",
					seed, step, insert, batch, m.Store().Len(), m.BaseLen(), want.Store().Len(), len(current))
			}
		}
		if schemaSteps < 30 {
			t.Fatalf("seed %d: only %d schema triples drawn", seed, schemaSteps)
		}
	}
}

func TestDeleteNonexistentIsNoop(t *testing.T) {
	e := newEnv()
	m := Materialize(e.tomGraph(), RDFSRules(e.voc))
	before := m.Store().Len()
	if n := m.Delete(e.tr("nobody", "type", "Nothing")); n != 0 {
		t.Errorf("Delete of absent triple returned %d", n)
	}
	// Deleting a derived (non-base) triple is also a no-op: only explicit
	// assertions can be retracted.
	if n := m.Delete(e.tr("tom", "type", "Mammal")); n != 0 {
		t.Errorf("Delete of derived triple returned %d", n)
	}
	if m.Store().Len() != before {
		t.Error("no-op deletes changed the store")
	}
}

func TestCloneIndependence(t *testing.T) {
	e := newEnv()
	m := Materialize(e.tomGraph(), RDFSRules(e.voc))
	c := m.Clone()
	c.Delete(e.tr("tom", "type", "Cat"))
	if !m.Store().Contains(e.tr("tom", "type", "Mammal")) {
		t.Error("deleting from clone affected original")
	}
	if c.Store().Contains(e.tr("tom", "type", "Mammal")) {
		t.Error("clone deletion had no effect")
	}
}

func TestSaturateStatsAndHelper(t *testing.T) {
	e := newEnv()
	sat := Materialize(e.tomGraph(), RDFSRules(e.voc))
	if sat.Store().Len() != 3 {
		t.Errorf("saturated store len = %d, want 3", sat.Store().Len())
	}
	if sat.Stats != (Stats{Derived: 1}) {
		t.Errorf("saturation stats = %+v, want 1 derived and no deletion counters", sat.Stats)
	}
	// An insertion counts the triples it derives; a deletion the support
	// checks it makes and the triples it retracts.
	m := Materialize(e.tomGraph(), RDFSRules(e.voc))
	m.Insert(e.tr("Mammal", "sco", "Animal"), e.tr("felix", "type", "Cat"))
	// tom type Animal, felix type Mammal, felix type Animal, Cat ⊑ Animal.
	if m.Stats != (Stats{Derived: 4}) {
		t.Errorf("insert stats = %+v, want 4 derived", m.Stats)
	}
	m.Delete(e.tr("felix", "type", "Cat"))
	// Three candidates, all retracted: felix type Cat, Mammal and Animal.
	if m.Stats != (Stats{Checked: 3, Retracted: 3}) {
		t.Errorf("delete stats = %+v, want 3 checked and 3 retracted", m.Stats)
	}
	m.Insert(e.tr("tom", "type", "Animal"))
	m.Delete(e.tr("Mammal", "sco", "Animal"))
	// The lost edges Mammal ⊑ Animal and Cat ⊑ Animal make Animal's
	// instances the candidates: its one-ID type run {tom}, decided once and
	// kept, because tom type Animal is asserted. The two schema triples are
	// retracted.
	if m.Stats != (Stats{Checked: 1, Retracted: 2}) {
		t.Errorf("schema delete stats = %+v, want 1 checked and 2 retracted", m.Stats)
	}
	// Both deleted triples entail x type Animal, which x r z keeps: it is
	// decided once, beside the two deleted triples, which are retracted.
	m.Insert(e.tr("p", "dom", "Animal"), e.tr("q", "dom", "Animal"), e.tr("r", "dom", "Animal"),
		e.tr("x", "p", "y"), e.tr("x", "q", "y"), e.tr("x", "r", "z"))
	m.Delete(e.tr("x", "p", "y"), e.tr("x", "q", "y"))
	if m.Stats != (Stats{Checked: 3, Retracted: 2}) {
		t.Errorf("instance delete stats = %+v, want 3 checked and 2 retracted", m.Stats)
	}
}

// TestCyclicSchemaStats pins the exact work of deletions over cyclic
// hierarchies, where the closed schema makes a class its own superclass and
// a property its own super-property: that self-loop entails nothing new, so
// it adds no candidate to a deletion's support checks.
func TestCyclicSchemaStats(t *testing.T) {
	e := newEnv()
	rules := RDFSRules(e.voc)
	g := e.storeOf(
		e.tr("A", "sco", "B"), e.tr("B", "sco", "A"), e.tr("B", "sco", "C"),
		e.tr("p", "spo", "q"), e.tr("q", "spo", "p"),
		e.tr("s", "type", "A"), e.tr("s", "type", "B"),
		e.tr("x", "p", "y"), e.tr("x", "q", "y"),
	)
	m := Materialize(g, rules)
	del := func(ts ...store.Triple) {
		m.Delete(ts...)
		for _, tr := range ts {
			g.Remove(tr)
		}
		sameAsGeneric(t, "after a delete", m, g, rules)
	}
	// The deleted triples and their strict consequences (s type A and C,
	// x p y) are checked, and all are kept by the asserted triple left in
	// each cycle.
	del(e.tr("s", "type", "B"), e.tr("x", "q", "y"))
	if m.Stats != (Stats{Checked: 5}) {
		t.Errorf("instance delete stats = %+v, want 5 checked", m.Stats)
	}
	// Breaking both cycles loses A ⊑ B, A ⊑ C, p ⊑ q and the self-loops
	// A ⊑ A, B ⊑ B, p ⊑ p, q ⊑ q. x q y (from x p y) is decided triple by
	// triple. B and C lost A's instances, so their type runs are decided
	// set at a time: B's {s} first (B has more superclasses), then C's {s},
	// where type(B) no longer holds s. All three are retracted with the
	// seven schema triples.
	del(e.tr("A", "sco", "B"), e.tr("p", "spo", "q"))
	if m.Stats != (Stats{Checked: 3, Retracted: 10}) {
		t.Errorf("schema delete stats = %+v, want 3 checked and 10 retracted", m.Stats)
	}
}

// TestSchemaDeleteReadsSettledEvidence pins the rule by which a schema
// deletion decides a class's rdf:type candidates set at a time: a type run
// strikes a candidate only once it is settled. In the first case, one batch
// deletes A ⊑ C and s type B, where B ⊑ C makes type(B) evidence for C's
// candidates; s type B must be retracted before type(B) is read, or s type
// C would be kept. In the second, the cycle A ⊑ B ⊑ A makes each of A and
// B the other's subclass, and deleting D ⊑ A takes s's only support for
// both; neither type run may vouch for the other.
func TestSchemaDeleteReadsSettledEvidence(t *testing.T) {
	for _, c := range []struct {
		name      string
		g, del    []string
		retracted int
	}{
		{"instance delete in the batch",
			[]string{"A sco C", "B sco C", "s type A", "s type B"},
			[]string{"A sco C", "s type B"}, 3},
		{"cyclic evidence",
			[]string{"A sco B", "B sco A", "D sco A", "s type D"},
			[]string{"D sco A"}, 4},
	} {
		e := newEnv()
		rules := RDFSRules(e.voc)
		parse := func(specs []string) []store.Triple {
			var ts []store.Triple
			for _, spec := range specs {
				f := strings.Fields(spec)
				ts = append(ts, e.tr(f[0], f[1], f[2]))
			}
			return ts
		}
		g := e.storeOf(parse(c.g)...)
		m := Materialize(g, rules)
		del := parse(c.del)
		m.Delete(del...)
		for _, tr := range del {
			g.Remove(tr)
		}
		sameAsGeneric(t, c.name, m, g, rules)
		if m.Stats.Retracted != c.retracted {
			t.Errorf("%s: %d retracted, want %d", c.name, m.Stats.Retracted, c.retracted)
		}
	}
}

// TestSchemaDeleteStatsOnLUBM pins the work of deleting Student ⊑ Person at
// LUBM 1×15. It loses Student, UndergraduateStudent and GraduateStudent ⊑
// Person and takesCourse and advisor domain Person: only Person lost
// instances, so its type run is the one candidate run, every person of the
// graph: per department 24 faculty, 96 undergraduates and 32 graduate
// students, 2,280 over 15 departments. Every one is still a Person (the
// faculty through Employee, the students through memberOf's domain), so
// only the five closure triples are retracted.
func TestSchemaDeleteStatsOnLUBM(t *testing.T) {
	d := dict.New()
	voc := schema.NewVocab(d)
	rules := RDFSRules(voc)
	g := store.New()
	lubm.GenerateWithOntology(lubm.DefaultConfig()).ForEach(func(tr rdf.Triple) bool {
		g.Add(encode(d, tr))
		return true
	})
	m := Materialize(g, rules)
	del := encode(d, rdf.T(lubm.Class("Student"), rdf.SubClassOf, lubm.Class("Person")))
	m.Delete(del)
	if m.Stats != (Stats{Checked: 2280, Retracted: 5}) {
		t.Errorf("delete stats = %+v, want 2280 checked and 5 retracted", m.Stats)
	}
	g.Remove(del)
	if !storesEqual(m.Store(), Materialize(g, rules).Store()) {
		t.Error("the maintained G∞ differs from the saturation of the remaining graph")
	}
}

// TestMaterializeRefusesOtherRuleSets pins that saturation runs
// RDFSRules and nothing else: a rule set it does not implement panics
// instead of being silently saturated as RDFS.
func TestMaterializeRefusesOtherRuleSets(t *testing.T) {
	e := newEnv()
	for name, rules := range map[string][]Rule{
		"extra rule":   append(RDFSRules(e.voc), RDFSRules(e.voc)[0]),
		"missing rule": RDFSRules(e.voc)[1:],
		"renamed rule": append([]Rule{{Name: "rdfs5'"}}, RDFSRules(e.voc)[1:]...),
		"none":         nil,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Materialize did not panic", name)
				}
			}()
			Materialize(e.tomGraph(), rules)
		}()
	}
}

func TestUserDefinedRule(t *testing.T) {
	// Oracle-style user rule (Section II-C): x worksWith y ∧ y worksWith z
	// ⊢ x worksWith z (a custom transitive property).
	e := newEnv()
	ww := e.id("worksWith")
	custom := Rule{
		Name: "user-trans", Doc: "worksWith is transitive",
		Premises: [2]Pattern{
			{S: V(0), P: C(ww), O: V(1)},
			{S: V(1), P: C(ww), O: V(2)},
		},
		Conclusion: Pattern{S: V(0), P: C(ww), O: V(2)},
		NVars:      3,
	}
	if err := custom.Validate(); err != nil {
		t.Fatal(err)
	}
	rules := append(RDFSRules(e.voc), custom)
	m := genericMaterialize(e.storeOf(
		e.tr("a", "worksWith", "b"),
		e.tr("b", "worksWith", "c"),
		e.tr("c", "worksWith", "d"),
	), rules)
	for _, w := range []store.Triple{
		e.tr("a", "worksWith", "c"),
		e.tr("a", "worksWith", "d"),
		e.tr("b", "worksWith", "d"),
	} {
		if !m.Store().Contains(w) {
			t.Errorf("missing %v", w)
		}
	}
}

func TestExplainProofTree(t *testing.T) {
	e := newEnv()
	m := Materialize(e.tomGraph(), RDFSRules(e.voc))
	d := m.Explain(e.tr("tom", "type", "Mammal"))
	if d == nil {
		t.Fatal("no derivation found for entailed triple")
	}
	if d.Rule != "rdfs9" {
		t.Errorf("derivation rule = %q, want rdfs9", d.Rule)
	}
	if len(d.Premises) != 2 {
		t.Fatalf("derivation has %d premises, want 2", len(d.Premises))
	}
	for _, p := range d.Premises {
		if p.Rule != "" {
			t.Errorf("premise %v should be a base fact", p.Triple)
		}
	}
	// Base triples explain themselves.
	if d := m.Explain(e.tr("tom", "type", "Cat")); d == nil || d.Rule != "" {
		t.Error("base triple should have an [asserted] leaf derivation")
	}
	// Absent triples have no derivation.
	if m.Explain(e.tr("tom", "type", "Fish")) != nil {
		t.Error("absent triple should have nil derivation")
	}
	// Formatting mentions the rule and the assertion markers.
	text := d.Format(e.d)
	if text == "" {
		t.Error("empty formatted derivation")
	}
}

// naiveClosure computes the fixpoint of rules over base by brute force:
// repeatedly join every pair of triples under every rule via slices, no
// iteration over a store that is being mutated. It is the oracle for
// saturation correctness under rules whose conclusions land in the very
// index leaves the semi-naive engine enumerates.
func naiveClosure(base []store.Triple, rules []Rule) map[store.Triple]struct{} {
	out := map[store.Triple]struct{}{}
	for _, t := range base {
		out[t] = struct{}{}
	}
	for changed := true; changed; {
		changed = false
		all := make([]store.Triple, 0, len(out))
		for t := range out {
			all = append(all, t)
		}
		for ri := range rules {
			r := &rules[ri]
			for _, t := range all {
				b := make([]dict.ID, r.NVars)
				if !matchPattern(r.Premises[0], t, b) {
					continue
				}
				for _, u := range all {
					b2 := make([]dict.ID, r.NVars)
					copy(b2, b)
					if !matchPattern(r.Premises[1], u, b2) {
						continue
					}
					c := instantiate(r.Conclusion, b2)
					if _, ok := out[c]; !ok {
						out[c] = struct{}{}
						changed = true
					}
				}
			}
		}
	}
	return out
}

// TestSaturateConclusionIntoIteratedLeaf exercises a user-defined rule whose
// conclusion is inserted into the same postings leaf the join is currently
// enumerating: premise 2 scans the (V1, p2, ?) leaf and the conclusion is
// (V1, p2, K). The packed-key store forbids mutation during ForEachMatch,
// so forEachInstantiation must buffer instantiations before applying them;
// this test pins that behavior against a brute-force closure, on a leaf of
// 40 objects.
func TestSaturateConclusionIntoIteratedLeaf(t *testing.T) {
	const (
		p1 = dict.ID(1)
		p2 = dict.ID(2)
		k  = dict.ID(99)
	)
	rule := Rule{
		Name: "leaf-self-insert",
		Premises: [2]Pattern{
			{S: V(0), P: C(p1), O: V(1)},
			{S: V(1), P: C(p2), O: V(2)},
		},
		Conclusion: Pattern{S: V(1), P: C(p2), O: C(k)},
		NVars:      3,
	}
	if err := rule.Validate(); err != nil {
		t.Fatal(err)
	}
	base := []store.Triple{{S: 10, P: p1, O: 20}}
	// Fill the (20, p2) leaf the join enumerates.
	for o := dict.ID(30); o < 30+40; o++ {
		base = append(base, store.Triple{S: 20, P: p2, O: o})
	}
	g := store.New()
	for _, tr := range base {
		g.Add(tr)
	}
	want := naiveClosure(base, []Rule{rule})

	for name, got := range map[string]*store.Store{
		"generic": genericMaterialize(g, []Rule{rule}).Store(),
	} {
		if got.Len() != len(want) {
			t.Errorf("%s: closure has %d triples, want %d", name, got.Len(), len(want))
			continue
		}
		for tr := range want {
			if !got.Contains(tr) {
				t.Errorf("%s: closure missing %v", name, tr)
			}
		}
	}
}

// TestStrike checks strike's three merges (galloping through the candidates,
// galloping through the run, and linear) against set membership, across size
// skews and with some candidates already struck.
func TestStrike(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	set := func(n int) []dict.ID {
		m := map[dict.ID]bool{}
		for len(m) < n {
			m[dict.ID(1+rng.Intn(4*n+8))] = true
		}
		ids := make([]dict.ID, 0, n)
		for id := range m {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids
	}
	for _, sz := range [][2]int{{1, 1}, {3, 200}, {200, 3}, {40, 50}, {0, 5}, {5, 0}, {64, 640}, {640, 64}} {
		for trial := 0; trial < 20; trial++ {
			left, run := set(sz[0]), set(sz[1])
			struck := make([]bool, len(left))
			want, n := make([]bool, len(left)), 0
			for j, id := range left {
				struck[j] = rng.Intn(4) == 0
				want[j] = struck[j] || slices.Contains(run, id)
				if want[j] && !struck[j] {
					n++
				}
			}
			if got := strike(left, struck, run); got != n || !slices.Equal(struck, want) {
				t.Fatalf("strike(%v, %v) = %d, marks %v; want %d, %v", left, run, got, struck, n, want)
			}
		}
	}
}

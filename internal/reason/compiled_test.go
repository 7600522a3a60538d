package reason

import (
	"slices"
	"testing"

	"repro/internal/dict"
	"repro/internal/lubm"
	"repro/internal/rdf"
	"repro/internal/schema"
	"repro/internal/store"
)

// encode encodes t into d.
func encode(d *dict.Dict, t rdf.Triple) store.Triple {
	return store.Triple{S: d.Encode(t.S), P: d.Encode(t.P), O: d.Encode(t.O)}
}

// sameAsGeneric fails t unless m's store and base equal the generic engine's
// saturation of base, triple for triple.
func sameAsGeneric(t *testing.T, what string, m *Materialization, base *store.Store, rules []Rule) {
	t.Helper()
	want := genericMaterialize(base, rules).Store()
	if m.BaseLen() != base.Len() {
		t.Fatalf("%s: base has %d triples, want %d", what, m.BaseLen(), base.Len())
	}
	base.ForEachMatch(store.Triple{}, func(tr store.Triple) bool {
		if !m.IsBase(tr) {
			t.Fatalf("%s: base lacks %v", what, tr)
		}
		return true
	})
	if m.Store().Len() != want.Len() {
		t.Fatalf("%s: G∞ has %d triples, the generic engine %d", what, m.Store().Len(), want.Len())
	}
	want.ForEachMatch(store.Triple{}, func(tr store.Triple) bool {
		if !m.Store().Contains(tr) {
			t.Fatalf("%s: G∞ lacks %v, which the generic engine derives", what, tr)
		}
		return true
	})
}

// TestCompiledMatchesGenericOnLUBM checks saturation through the closed
// schema against the generic engine on LUBM at 2 universities × 4
// departments: Materialize, then each of Figure 3's schema updates
// (lubm.SchemaUpdates inserted, lubm.ExistingSchemaTriples deleted) applied
// and then undone.
func TestCompiledMatchesGenericOnLUBM(t *testing.T) {
	cfg := lubm.DefaultConfig()
	cfg.Universities, cfg.DeptsPerUniv = 2, 4
	d := dict.New()
	voc := schema.NewVocab(d)
	rules := RDFSRules(voc)
	g := store.New()
	lubm.GenerateWithOntology(cfg).ForEach(func(tr rdf.Triple) bool {
		g.Add(encode(d, tr))
		return true
	})
	m := Materialize(g, rules)
	sameAsGeneric(t, "Materialize", m, g, rules)

	type step struct {
		del bool
		t   store.Triple
	}
	var steps []step
	for _, tr := range lubm.SchemaUpdates() {
		steps = append(steps, step{false, encode(d, tr)})
	}
	for _, tr := range lubm.ExistingSchemaTriples() {
		steps = append(steps, step{true, encode(d, tr)})
	}
	if len(steps) != 7 {
		t.Fatalf("%d schema steps, want 7", len(steps))
	}
	for _, s := range steps {
		apply, undo := m.Insert, m.Delete
		applied, undone := g.Add, g.Remove
		if s.del {
			apply, undo = m.Delete, m.Insert
			applied, undone = g.Remove, g.Add
		}
		if apply(s.t) != 1 || !applied(s.t) {
			t.Fatalf("step %v (delete=%v) changed no base triple", s.t, s.del)
		}
		sameAsGeneric(t, "after applying a schema step", m, g, rules)
		undo(s.t)
		undone(s.t)
		sameAsGeneric(t, "after undoing a schema step", m, g, rules)
	}
}

// stream decodes fuzz bytes into a stream of insert and delete batches over a
// small vocabulary: four classes, three properties, four subjects. Each batch
// takes one byte (bit 0: delete; bits 1–2: one to three triples) and each
// triple two more: its shape and, packed, the two names it uses. Shapes
// cover subClassOf and subPropertyOf edges (cycles included), domains and
// ranges on any property (sub-properties included), rdf:type and property
// triples; every triple is in the DB fragment.
type stream struct {
	e     *env
	bytes []byte
}

// next returns the next batch, or ok false once the bytes run out.
func (s *stream) next() (del bool, batch []store.Triple, ok bool) {
	if len(s.bytes) == 0 {
		return false, nil, false
	}
	head := s.bytes[0]
	s.bytes = s.bytes[1:]
	classes := []string{"A", "B", "C", "D"}
	props := []string{"p", "q", "r"}
	subjects := []string{"s1", "s2", "s3", "s4"}
	for i := 0; i < 1+int(head>>1&3)%3 && len(s.bytes) >= 2; i++ {
		shape, names := s.bytes[0], s.bytes[1]
		s.bytes = s.bytes[2:]
		a, b := int(names&15), int(names>>4)
		var t store.Triple
		switch shape % 6 {
		case 0:
			t = s.e.tr(classes[a%4], "sco", classes[b%4])
		case 1:
			t = s.e.tr(props[a%3], "spo", props[b%3])
		case 2:
			t = s.e.tr(props[a%3], "dom", classes[b%4])
		case 3:
			t = s.e.tr(props[a%3], "rng", classes[b%4])
		case 4:
			t = s.e.tr(subjects[a%4], "type", classes[b%4])
		default:
			t = s.e.tr(subjects[a%4], props[int(shape/6)%3], subjects[b%4])
		}
		batch = append(batch, t)
	}
	return head&1 == 1, batch, true
}

// FuzzCompiledClosure runs decoded streams of instance and schema inserts
// and deletes through one Materialization and, after every batch, compares
// the maintained store and base with the generic engine's saturation of the
// tracked base, triple for triple, and the closed schema it keeps with
// schema.Extract of the tracked base.
func FuzzCompiledClosure(f *testing.F) {
	f.Add([]byte{0, 0, 0x10, 0, 0x01, 2, 0x30, 4, 0x00, 1, 0x12, 5, 0x11})
	f.Add([]byte{2, 0, 0x10, 0, 0x01, 4, 0x00, 3, 0x02, 1, 0, 0x10, 5, 0x23, 7, 0x00, 1})
	f.Add([]byte{4, 1, 0x10, 1, 0x21, 1, 0x02, 2, 0x10, 3, 0x12, 4, 0x11, 6, 0x31, 3, 0, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		e := newEnv()
		rules := RDFSRules(e.voc)
		s := &stream{e: e, bytes: data}
		m := Materialize(store.New(), rules)
		base := store.New()
		for step := 0; step < 64; step++ {
			del, batch, ok := s.next()
			if !ok {
				return
			}
			if del {
				m.Delete(batch...)
				for _, tr := range batch {
					base.Remove(tr)
				}
			} else {
				m.Insert(batch...)
				for _, tr := range batch {
					base.Add(tr)
				}
			}
			sameAsGeneric(t, "after a batch", m, base, rules)
			if got, want := m.sch.ClosureTriples(), schema.Extract(base, e.voc).ClosureTriples(); !slices.Equal(got, want) {
				t.Fatalf("after a batch: the kept closed schema has %d triples, schema.Extract of the base %d", len(got), len(want))
			}
		}
	})
}

// checkProof fails t unless d proves its triple from base triples of m by
// applications of RDFSRules, each matched against the rule's patterns.
func checkProof(t *testing.T, m *Materialization, d *Derivation) {
	t.Helper()
	if d == nil {
		t.Fatal("no proof")
	}
	if !m.Store().Contains(d.Triple) {
		t.Fatalf("proof step %v is not in G∞", d.Triple)
	}
	if d.Rule == "" {
		if !m.IsBase(d.Triple) || len(d.Premises) != 0 {
			t.Fatalf("leaf %v is not an asserted triple", d.Triple)
		}
		return
	}
	var rule *Rule
	for _, r := range m.Rules() {
		if r.Name == d.Rule {
			rule = &r
		}
	}
	if rule == nil || len(d.Premises) != 2 {
		t.Fatalf("step %v: rule %q with %d premises", d.Triple, d.Rule, len(d.Premises))
	}
	b := make([]dict.ID, rule.NVars)
	for i := range b {
		b[i] = dict.None
	}
	if !matchPattern(rule.Premises[0], d.Premises[0].Triple, b) ||
		!matchPattern(rule.Premises[1], d.Premises[1].Triple, b) ||
		instantiate(rule.Conclusion, b) != d.Triple {
		t.Fatalf("step %v: not an application of %s to %v and %v", d.Triple, d.Rule, d.Premises[0].Triple, d.Premises[1].Triple)
	}
	for _, p := range d.Premises {
		checkProof(t, m, p)
	}
}

// TestExplainProvesEveryTriple explains every triple of G∞ over schemas with
// subClassOf and subPropertyOf chains and cycles and with domains and ranges
// inherited both ways, and checks each proof rule by rule.
func TestExplainProvesEveryTriple(t *testing.T) {
	e := newEnv()
	m := Materialize(e.storeOf(
		e.tr("A", "sco", "B"), e.tr("B", "sco", "C"), e.tr("C", "sco", "A"), e.tr("C", "sco", "D"),
		e.tr("p", "spo", "q"), e.tr("q", "spo", "r"), e.tr("r", "spo", "q"),
		e.tr("r", "dom", "A"), e.tr("q", "rng", "B"), e.tr("p", "rng", "D"),
		e.tr("s1", "p", "s2"), e.tr("s3", "type", "B"), e.tr("s4", "q", "s1"),
	), RDFSRules(e.voc))
	n := 0
	m.Store().ForEachMatch(store.Triple{}, func(tr store.Triple) bool {
		checkProof(t, m, m.Explain(tr))
		n++
		return true
	})
	if n < 40 {
		t.Fatalf("only %d triples in G∞", n)
	}
}

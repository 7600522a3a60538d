package reason

import (
	"testing"

	"repro/internal/lubm"
	"repro/internal/rdf"
	"repro/internal/schema"
	"repro/internal/store"
)

// perSource is the reference expansion affected deduplicates: every triple
// ch carries each matching triple of st to, once per source triple.
func perSource(ch change, st *store.Store) []store.Triple {
	var out []store.Triple
	typ := ch.voc.Type
	for p, cons := range ch.props {
		st.ForEachMatch(store.Triple{P: p}, func(t store.Triple) bool {
			for _, q := range cons.supers {
				out = append(out, store.Triple{S: t.S, P: q, O: t.O})
			}
			for _, k := range cons.domains {
				out = append(out, store.Triple{S: t.S, P: typ, O: k})
			}
			for _, k := range cons.ranges {
				out = append(out, store.Triple{S: t.O, P: typ, O: k})
			}
			return true
		})
	}
	for k, sup := range ch.classes {
		st.ForEachMatch(store.Triple{P: typ, O: k}, func(t store.Triple) bool {
			for _, c := range sup {
				out = append(out, store.Triple{S: t.S, P: typ, O: c})
			}
			return true
		})
	}
	return out
}

// TestAffectedTypesOnce checks the saturation input against the per-source
// expansion on LUBM 2×4 and on a cyclic schema: over the whole closure,
// affected yields the same set of triples, no rdf:type triple twice and
// every super-property consequence once per source; and Materialize's input
// is allocated at its exact length, at most |G∞| + |closure| + the
// super-property consequences.
func TestAffectedTypesOnce(t *testing.T) {
	cfg := lubm.DefaultConfig()
	cfg.Universities, cfg.DeptsPerUniv = 2, 4
	lubmEnv := newEnv()
	g := store.New()
	lubm.GenerateWithOntology(cfg).ForEach(func(tr rdf.Triple) bool {
		g.Add(encode(lubmEnv.d, tr))
		return true
	})
	cyc := newEnv()
	cyclic := cyc.storeOf(
		cyc.tr("A", "sco", "B"), cyc.tr("B", "sco", "A"), cyc.tr("B", "sco", "C"),
		cyc.tr("p", "spo", "q"), cyc.tr("q", "spo", "p"), cyc.tr("q", "spo", "r"),
		cyc.tr("p", "dom", "A"), cyc.tr("q", "rng", "B"), cyc.tr("r", "dom", "C"),
		cyc.tr("s", "type", "A"), cyc.tr("s", "type", "B"), cyc.tr("u", "type", "A"),
		cyc.tr("x", "p", "y"), cyc.tr("x", "q", "y"), cyc.tr("x", "p", "z"),
		cyc.tr("s", "q", "u"), cyc.tr("y", "r", "s"),
	)
	for _, c := range []struct {
		name string
		voc  schema.Vocab
		g    *store.Store
	}{{"lubm=2x4", lubmEnv.voc, g}, {"cyclic", cyc.voc, cyclic}} {
		sch := schema.Extract(c.g, c.voc)
		closure := sch.ClosureTriples()
		ch := group(closure, c.voc)
		want := map[store.Triple]int{}
		wantSupers := 0
		src := perSource(ch, c.g)
		for _, tr := range src {
			want[tr]++
			if tr.P != c.voc.Type {
				wantSupers++
			}
		}
		got := map[store.Triple]int{}
		gotSupers := 0
		for _, tr := range ch.affected(nil, c.g) {
			got[tr]++
			if tr.P != c.voc.Type {
				gotSupers++
			} else if got[tr] > 1 {
				t.Fatalf("%s: %v appended twice", c.name, tr)
			}
			if want[tr] == 0 {
				t.Fatalf("%s: %v is no consequence of a source triple", c.name, tr)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: affected gives %d distinct triples, the per-source expansion %d", c.name, len(got), len(want))
		}
		if gotSupers != wantSupers || gotSupers != ch.superCount(c.g) {
			t.Fatalf("%s: %d super-property consequences, want %d (superCount %d)", c.name, gotSupers, wantSupers, ch.superCount(c.g))
		}
		ts := saturationInput(c.g, sch)
		gInf := Materialize(c.g, RDFSRules(c.voc)).Store().Len()
		if bound := gInf + len(closure) + wantSupers; cap(ts) != len(ts) || cap(ts) > bound {
			t.Fatalf("%s: input of %d triples reserves %d, want exact and at most |G∞| + |closure| + supers = %d", c.name, len(ts), cap(ts), bound)
		}
		t.Logf("%s: %d consequences per source, %d distinct; input %d triples, |G∞| = %d", c.name, len(src), len(want), len(ts), gInf)
	}
}

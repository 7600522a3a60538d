package core

import (
	"strings"
	"testing"

	"repro/internal/persist"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// epochRuns is a sequence of alternating runs with every kind of step in it:
// instance and type inserts, a schema insert that later runs depend on, and
// deletes of earlier runs' triples.
var epochRuns = []persist.Mutation{
	{Triples: []rdf.Triple{rdf.T(iri("max"), iri("advises"), iri("ana")), rdf.T(iri("ana"), rdf.Type, iri("Student"))}},
	{Del: true, Triples: []rdf.Triple{rdf.T(iri("jones"), iri("advises"), iri("lee"))}},
	{Triples: []rdf.Triple{rdf.T(iri("mentors"), rdf.SubPropertyOf, iri("advises")), rdf.T(iri("smith"), iri("mentors"), iri("kim"))}},
	{Del: true, Triples: []rdf.Triple{rdf.T(iri("ana"), rdf.Type, iri("Student")), rdf.T(iri("kim"), rdf.Type, iri("GradStudent"))}},
	{Triples: []rdf.Triple{rdf.T(iri("Person"), rdf.SubClassOf, iri("Agent"))}},
	{Del: true, Triples: []rdf.Triple{rdf.T(iri("advises"), rdf.SubPropertyOf, iri("knows"))}},
}

func answersKey(t *testing.T, kb *KB, s Strategy) string {
	t.Helper()
	var b strings.Builder
	for _, qtext := range append([]string{`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Agent }`}, agreementQueries...) {
		res, err := s.Answer(sparql.MustParse(qtext))
		if err != nil {
			t.Fatalf("%s / %s: %v", s.Name(), qtext, err)
		}
		b.WriteString(qtext + "\n" + strings.Join(resultStrings(t, kb, res), "\n") + "\n")
	}
	return b.String()
}

// TestApplyIsOneEpoch: the runs of one Apply are maintained in order but
// become visible together — one view, one store epoch — and end in the state
// that applying them one Insert/Delete at a time reaches; a reader inside the
// Apply still sees the state before it.
func TestApplyIsOneEpoch(t *testing.T) {
	for i := range allStrategies(t, loadKB(t)) {
		kb, stepKB := loadKB(t), loadKB(t)
		s, step := allStrategies(t, kb)[i], allStrategies(t, stepKB)[i]
		t.Run(s.Name(), func(t *testing.T) {
			before, stats0 := answersKey(t, kb, s), s.WriteStats()
			err := s.Apply(func(w Writer) error {
				for _, r := range epochRuns {
					apply := w.Insert
					if r.Del {
						apply = w.Delete
					}
					if err := apply(r.Triples...); err != nil {
						return err
					}
					if got := answersKey(t, kb, s); got != before {
						t.Fatalf("a run became visible before the Apply ended:\n%s", got)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			stats := s.WriteStats()
			if stats.Views != stats0.Views+1 || stats.StoreEpoch != stats0.StoreEpoch+1 {
				t.Fatalf("%d runs cost %d views and %d store epochs, want 1 and 1",
					len(epochRuns), stats.Views-stats0.Views, stats.StoreEpoch-stats0.StoreEpoch)
			}
			for _, r := range epochRuns {
				if r.Del {
					err = step.Delete(r.Triples...)
				} else {
					err = step.Insert(r.Triples...)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if v := step.WriteStats().Views; v != uint64(len(epochRuns)) {
				t.Fatalf("%d one-run applies published %d views", len(epochRuns), v)
			}
			if got, want := answersKey(t, kb, s), answersKey(t, stepKB, step); got != want {
				t.Fatalf("one epoch and one-by-one disagree:\n%s\nvs\n%s", got, want)
			}
			if s.Len() != step.Len() {
				t.Fatalf("Len %d after one epoch, %d one by one", s.Len(), step.Len())
			}
		})
	}
}

// TestApplyErrorPublishesTheRunsBeforeIt: a run refused for an ill-formed
// triple applies nothing of itself, ends the Apply with its error, and leaves
// the runs before it applied and visible.
func TestApplyErrorPublishesTheRunsBeforeIt(t *testing.T) {
	kb := loadKB(t)
	for _, s := range allStrategies(t, kb) {
		good := rdf.T(iri("max"), rdf.Type, iri("Professor"))
		bad := rdf.T(rdf.NewLiteral("not a subject"), rdf.Type, iri("Professor"))
		err := s.Apply(func(w Writer) error {
			if err := w.Insert(good); err != nil {
				return err
			}
			return w.Insert(rdf.T(iri("eve"), rdf.Type, iri("Professor")), bad)
		})
		if err == nil {
			t.Fatalf("%s: an ill-formed triple passed", s.Name())
		}
		for who, want := range map[string]bool{"max": true, "eve": false} {
			q := sparql.MustParse(`ASK { <` + ex + who + `> a <` + ex + `Person> }`)
			if ok, err := Ask(s.Answer(q)); err != nil || ok != want {
				t.Fatalf("%s: %s a Person = %v, %v; want %v", s.Name(), who, ok, err, want)
			}
		}
		if v := s.WriteStats().Views; v != 1 {
			t.Fatalf("%s: %d views, want 1", s.Name(), v)
		}
	}
}

// TestReplayIsOneEpoch: a recovered record sequence of several runs goes
// through Replay as one epoch, and a mid-epoch DurableState capture holds
// exactly the runs applied before it.
func TestReplayIsOneEpoch(t *testing.T) {
	kb := loadKB(t)
	s := NewSaturation(kb)
	n, err := Replay(s, func(insert, del func(...rdf.Triple) error) (int, error) {
		return persist.ReplayBatch(epochRuns, insert, del)
	})
	if err != nil || n != len(epochRuns) {
		t.Fatalf("Replay = %d, %v; want %d records", n, err, len(epochRuns))
	}
	if v := s.WriteStats().Views; v != 1 {
		t.Fatalf("%d runs replayed into %d views, want 1", len(epochRuns), v)
	}

	// The capture after run 1 of 2 must not contain run 2, though both are
	// published together.
	first, second := rdf.T(iri("uma"), rdf.Type, iri("Professor")), rdf.T(iri("vic"), rdf.Type, iri("Professor"))
	var mid persist.State
	err = s.Apply(func(w Writer) error {
		if err := w.Insert(first); err != nil {
			return err
		}
		mid = w.DurableState()
		return w.Insert(second)
	})
	if err != nil {
		t.Fatal(err)
	}
	sat := mid.Saturated.(*store.Snapshot)
	if !sat.Contains(kb.Encode(first)) || sat.Contains(kb.Encode(second)) {
		t.Fatal("mid-epoch capture does not sit at its run boundary")
	}
	if !sat.Contains(kb.Encode(rdf.T(iri("uma"), rdf.Type, iri("Person")))) {
		t.Fatal("mid-epoch capture is missing the closure of the run before it")
	}
	end := s.DurableState()
	if !end.Saturated.(*store.Snapshot).Contains(kb.Encode(second)) || end.BaseSet.Len() != mid.BaseSet.Len()+1 {
		t.Fatal("the run after the capture was lost")
	}
}

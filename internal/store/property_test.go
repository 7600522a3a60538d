package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dict"
)

// refStore is a deliberately naive reference implementation of the store
// contract: a flat set of triples, every query a full scan. The property
// test drives it and the packed-key store through the same randomized
// operation sequence and requires observational equivalence, so the packed
// layout (sorted leaves, side tables, count maintenance) is checked as a
// drop-in replacement — including the Remove-heavy access pattern of the
// DRed maintenance paths.
type refStore struct {
	set map[Triple]struct{}
}

func newRefStore() *refStore { return &refStore{set: map[Triple]struct{}{}} }

func (r *refStore) Add(t Triple) bool {
	if _, ok := r.set[t]; ok {
		return false
	}
	r.set[t] = struct{}{}
	return true
}

func (r *refStore) Remove(t Triple) bool {
	if _, ok := r.set[t]; !ok {
		return false
	}
	delete(r.set, t)
	return true
}

func (r *refStore) Contains(t Triple) bool {
	_, ok := r.set[t]
	return ok
}

func (r *refStore) Len() int { return len(r.set) }

func (r *refStore) Match(pat Triple) map[Triple]bool {
	out := map[Triple]bool{}
	for t := range r.set {
		if pat.Matches(t) {
			out[t] = true
		}
	}
	return out
}

func (r *refStore) Predicates() map[dict.ID]bool {
	out := map[dict.ID]bool{}
	for t := range r.set {
		out[t.P] = true
	}
	return out
}

func (r *refStore) Objects(p dict.ID) map[dict.ID]bool {
	out := map[dict.ID]bool{}
	for t := range r.set {
		if t.P == p {
			out[t.O] = true
		}
	}
	return out
}

// checkEquivalent compares the packed store against the reference on every
// observable: Len, Contains, and Count/ForEachMatch across all eight
// pattern shapes over the given ID domain (0 = wildcard included).
func checkEquivalent(t *testing.T, step int, s *Store, ref *refStore, maxID dict.ID) {
	t.Helper()
	if s.Len() != ref.Len() {
		t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), ref.Len())
	}
	for sid := dict.ID(0); sid <= maxID; sid++ {
		for p := dict.ID(0); p <= maxID; p++ {
			for o := dict.ID(0); o <= maxID; o++ {
				pat := Triple{sid, p, o}
				want := ref.Match(pat)
				if got := s.Count(pat); got != len(want) {
					t.Fatalf("step %d: Count(%v) = %d, want %d", step, pat, got, len(want))
				}
				seen := map[Triple]bool{}
				s.ForEachMatch(pat, func(tr Triple) bool {
					if seen[tr] {
						t.Fatalf("step %d: ForEachMatch(%v) yielded %v twice", step, pat, tr)
					}
					if !want[tr] {
						t.Fatalf("step %d: ForEachMatch(%v) yielded %v not in reference", step, pat, tr)
					}
					seen[tr] = true
					return true
				})
				if len(seen) != len(want) {
					t.Fatalf("step %d: ForEachMatch(%v) yielded %d triples, want %d", step, pat, len(seen), len(want))
				}
			}
		}
	}
}

// checkCanonical walks every index of the tables and requires the canonical
// form the store's reads and the codec rely on: a leaf or side-table set of
// one ID is inline (no run, and never dict.None), one of two or more is a
// strictly ascending run (no run shorter than 2), every side-table record
// counts exactly the triples of the leaves its b set names, and the leaves
// are exactly the ones the b sets name.
func checkCanonical(t *testing.T, tag string, tb *tables) {
	t.Helper()
	form := func(what string, one dict.ID, run *postings) {
		t.Helper()
		switch {
		case run == nil && one == dict.None:
			t.Fatalf("%s: %s is empty (inline dict.None, no run)", tag, what)
		case run != nil && one != dict.None:
			t.Fatalf("%s: %s holds both inline %d and a run", tag, what, one)
		case run != nil && len(run.ids) < 2:
			t.Fatalf("%s: %s is a run of %d IDs", tag, what, len(run.ids))
		case run != nil:
			for i := 1; i < len(run.ids); i++ {
				if run.ids[i] <= run.ids[i-1] {
					t.Fatalf("%s: %s run not strictly ascending: %v", tag, what, run.ids)
				}
			}
		}
	}
	for name, ix := range map[string]*index{"spo": &tb.spo, "pos": &tb.pos, "osp": &tb.osp} {
		ix.ls.forEach(func(k uint64, l *leaf) bool {
			form(fmt.Sprintf("%s leaf (%d,%d)", name, k>>32, uint32(k)), l.one, l.run)
			return true
		})
		named := 0
		ix.as.forEach(func(a uint64, e *aSub) bool {
			what := fmt.Sprintf("%s side-table set of %d", name, a)
			form(what, e.one, e.sub)
			sum := 0
			for _, b := range e.bs() {
				l := ix.leaf(dict.ID(a), b)
				if l == nil {
					t.Fatalf("%s: %s names b = %d, which has no leaf", tag, what, b)
				}
				sum += l.size()
			}
			if int(e.count) != sum {
				t.Fatalf("%s: %s counts %d triples, its leaves hold %d", tag, what, e.count, sum)
			}
			named += len(e.bs())
			return true
		})
		if named != ix.leaves() {
			t.Fatalf("%s: %s side tables name %d leaves, the index holds %d", tag, name, named, ix.leaves())
		}
	}
}

// TestPackedStoreEquivalence randomizes Add/Remove/Contains against the
// reference and periodically checks full observational equivalence. The ID
// domain is small so patterns collide heavily (dense leaves) and removals
// frequently empty leaves (exercised demolition of
// leaves, sub entries, and counters).
func TestPackedStoreEquivalence(t *testing.T) {
	const (
		steps    = 6000
		maxID    = dict.ID(6)
		checkGap = 500
	)
	rng := rand.New(rand.NewSource(7))
	s := New()
	ref := newRefStore()
	randID := func() dict.ID { return dict.ID(rng.Intn(int(maxID)) + 1) }
	for step := 0; step < steps; step++ {
		x := Triple{randID(), randID(), randID()}
		switch rng.Intn(3) {
		case 0, 1: // biased toward Add so the store actually fills up
			if got, want := s.Add(x), ref.Add(x); got != want {
				t.Fatalf("step %d: Add(%v) = %v, want %v", step, x, got, want)
			}
		case 2:
			if got, want := s.Remove(x), ref.Remove(x); got != want {
				t.Fatalf("step %d: Remove(%v) = %v, want %v", step, x, got, want)
			}
		}
		if got, want := s.Contains(x), ref.Contains(x); got != want {
			t.Fatalf("step %d: Contains(%v) = %v, want %v", step, x, got, want)
		}
		if step%checkGap == checkGap-1 {
			checkEquivalent(t, step, s, ref, maxID)
			checkCanonical(t, fmt.Sprintf("step %d", step), &s.tables)
		}
	}
	checkEquivalent(t, steps, s, ref, maxID)
	checkCanonical(t, "end", &s.tables)

	// Predicates/Objects agree with the reference at the end state.
	ps := s.Predicates()
	wantPs := ref.Predicates()
	if len(ps) != len(wantPs) {
		t.Fatalf("Predicates = %v, want %d distinct", ps, len(wantPs))
	}
	for _, p := range ps {
		if !wantPs[p] {
			t.Fatalf("Predicates contains %d, not in reference", p)
		}
		os := s.Objects(p)
		wantOs := ref.Objects(p)
		if len(os) != len(wantOs) {
			t.Fatalf("Objects(%d) = %v, want %d distinct", p, os, len(wantOs))
		}
		for _, o := range os {
			if !wantOs[o] {
				t.Fatalf("Objects(%d) contains %d, not in reference", p, o)
			}
		}
	}

	// Drain everything through Remove (the DRed overdeletion access pattern)
	// and require the store to come back to a clean empty state.
	for x := range ref.set {
		if !s.Remove(x) {
			t.Fatalf("drain: Remove(%v) = false, want true", x)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("drained store Len = %d, want 0", s.Len())
	}
	if n := s.spo.leaves() + s.pos.leaves() + s.osp.leaves(); n != 0 {
		t.Fatalf("drained store retains %d leaves", n)
	}
	if n := s.spo.as.len() + s.pos.as.len() + s.osp.as.len(); n != 0 {
		t.Fatalf("drained store retains %d index entries", n)
	}
}

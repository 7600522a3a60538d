package store

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dict"
)

// tr builds an encoded triple from small ints for test brevity.
func tr(s, p, o dict.ID) Triple { return Triple{s, p, o} }

// Matches reports whether the concrete triple u matches the pattern t
// (wildcards in t match anything): the tests' reference for ForEachMatch.
func (t Triple) Matches(u Triple) bool {
	return (t.S == dict.None || t.S == u.S) &&
		(t.P == dict.None || t.P == u.P) &&
		(t.O == dict.None || t.O == u.O)
}

func TestAddRemoveContains(t *testing.T) {
	s := New()
	if !s.Add(tr(1, 2, 3)) {
		t.Error("first Add should be new")
	}
	if s.Add(tr(1, 2, 3)) {
		t.Error("duplicate Add should report false")
	}
	if !s.Contains(tr(1, 2, 3)) || s.Len() != 1 {
		t.Error("Contains/Len wrong after Add")
	}
	if !s.Remove(tr(1, 2, 3)) {
		t.Error("Remove of present triple should report true")
	}
	if s.Remove(tr(1, 2, 3)) {
		t.Error("Remove of absent triple should report false")
	}
	if s.Contains(tr(1, 2, 3)) || s.Len() != 0 {
		t.Error("Contains/Len wrong after Remove")
	}
}

func TestAddPanicsOnWildcard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with None component should panic")
		}
	}()
	New().Add(tr(dict.None, 1, 2))
}

// fixture returns a small store with a known triple set.
func fixture() (*Store, []Triple) {
	ts := []Triple{
		tr(1, 10, 2), tr(1, 10, 3), tr(1, 11, 2),
		tr(2, 10, 3), tr(3, 11, 1), tr(4, 12, 4),
	}
	s := New()
	for _, x := range ts {
		s.Add(x)
	}
	return s, ts
}

func sortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.S != b.S {
			return a.S < b.S
		}
		if a.P != b.P {
			return a.P < b.P
		}
		return a.O < b.O
	})
}

func TestMatchAllPatternShapes(t *testing.T) {
	s, all := fixture()
	cases := []struct {
		name string
		pat  Triple
	}{
		{"spo", tr(1, 10, 2)},
		{"sp?", tr(1, 10, 0)},
		{"?po", tr(0, 10, 3)},
		{"s?o", tr(1, 0, 2)},
		{"s??", tr(1, 0, 0)},
		{"?p?", tr(0, 10, 0)},
		{"??o", tr(0, 0, 3)},
		{"???", tr(0, 0, 0)},
		{"miss", tr(9, 9, 9)},
	}
	for _, c := range cases {
		// Reference: filter the full list by the pattern.
		var want []Triple
		for _, x := range all {
			if c.pat.Matches(x) {
				want = append(want, x)
			}
		}
		got := s.Match(c.pat)
		sortTriples(got)
		sortTriples(want)
		if len(got) != len(want) {
			t.Errorf("%s: got %v, want %v", c.name, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: got %v, want %v", c.name, got, want)
				break
			}
		}
		if n := s.Count(c.pat); n != len(want) {
			t.Errorf("%s: Count = %d, want %d", c.name, n, len(want))
		}
	}
}

func TestForEachMatchEarlyStop(t *testing.T) {
	s, _ := fixture()
	n := 0
	s.ForEachMatch(tr(0, 0, 0), func(Triple) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early stop visited %d, want 2", n)
	}
}

func TestPredicatesAndObjects(t *testing.T) {
	s, _ := fixture()
	ps := s.Predicates()
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	want := []dict.ID{10, 11, 12}
	if len(ps) != len(want) {
		t.Fatalf("Predicates = %v, want %v", ps, want)
	}
	for i := range ps {
		if ps[i] != want[i] {
			t.Fatalf("Predicates = %v, want %v", ps, want)
		}
	}
	os := s.Objects(10)
	sort.Slice(os, func(i, j int) bool { return os[i] < os[j] })
	if len(os) != 2 || os[0] != 2 || os[1] != 3 {
		t.Errorf("Objects(10) = %v, want [2 3]", os)
	}
	// After removing the last triple of predicate 12, it must disappear.
	s.Remove(tr(4, 12, 4))
	for _, p := range s.Predicates() {
		if p == 12 {
			t.Error("predicate 12 still listed after its last triple was removed")
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	s, _ := fixture()
	c := s.Clone()
	if c.Len() != s.Len() {
		t.Fatalf("clone Len = %d, want %d", c.Len(), s.Len())
	}
	c.Remove(tr(1, 10, 2))
	if !s.Contains(tr(1, 10, 2)) {
		t.Error("removing from clone affected original")
	}
	c.Add(tr(7, 7, 7))
	if s.Contains(tr(7, 7, 7)) {
		t.Error("adding to clone affected original")
	}
}

// TestClonesOfASnapshottedStoreOnlyRead: Clone, CloneSet and TripleSet.Clone
// of a container whose snapshot is current leave it untouched — the same
// cached snapshot, the same triples — so goroutines may clone one quiescent
// store at once and write their clones side by side, each seeing only its
// own writes (run under -race in CI).
func TestClonesOfASnapshottedStoreOnlyRead(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ts []Triple
	for i := 0; i < 2000; i++ {
		ts = append(ts, Triple{dict.ID(rng.Intn(200) + 1), dict.ID(rng.Intn(5) + 1), dict.ID(rng.Intn(200) + 1)})
	}
	st := Build(ts)
	set := st.CloneSet()
	sn, setSn := st.Snapshot(), set.Snapshot()
	want := sortedTriples(sn)
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, cs, cc := st.Clone(), st.CloneSet(), set.Clone()
			mine := Triple{dict.ID(1000 + w), 1, 1}
			for _, tr := range want[w*100 : w*100+100] {
				c.Remove(tr)
				cs.Remove(tr)
				cc.Remove(tr)
			}
			c.Add(mine)
			cs.Add(mine)
			cc.Add(mine)
			for i, v := range []interface {
				Len() int
				Contains(Triple) bool
			}{c, cs, cc} {
				if v.Len() != len(want)-99 || !v.Contains(mine) {
					t.Errorf("writer %d clone %d: Len %d, want %d, holding its own triple", w, i, v.Len(), len(want)-99)
				}
			}
		}()
	}
	wg.Wait()
	if st.Snapshot() != sn || set.Snapshot() != setSn {
		t.Fatal("cloning replaced the source's cached snapshot")
	}
	if !equalTriples(sortedTriples(st), want) || set.Len() != len(want) {
		t.Fatal("writes to the clones reached the source")
	}
	for _, tr := range want {
		if !set.Contains(tr) {
			t.Fatalf("writes to the clones removed %v from the source set", tr)
		}
	}
}

// TestRandomisedAgainstReferenceSet drives a random add/remove sequence and
// checks the store agrees with a plain map reference implementation on
// membership, length and every pattern count.
func TestRandomisedAgainstReferenceSet(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := New()
	ref := map[Triple]struct{}{}
	randID := func() dict.ID { return dict.ID(rng.Intn(8) + 1) }
	for step := 0; step < 3000; step++ {
		x := tr(randID(), randID(), randID())
		if rng.Intn(2) == 0 {
			_, had := ref[x]
			if got := s.Add(x); got != !had {
				t.Fatalf("step %d: Add(%v) = %v, want %v", step, x, got, !had)
			}
			ref[x] = struct{}{}
		} else {
			_, had := ref[x]
			if got := s.Remove(x); got != had {
				t.Fatalf("step %d: Remove(%v) = %v, want %v", step, x, got, had)
			}
			delete(ref, x)
		}
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ref))
	}
	// Check all pattern shapes over the small ID domain.
	for sID := dict.ID(0); sID <= 8; sID++ {
		for p := dict.ID(0); p <= 8; p++ {
			for o := dict.ID(0); o <= 8; o++ {
				pat := tr(sID, p, o)
				want := 0
				for x := range ref {
					if pat.Matches(x) {
						want++
					}
				}
				if got := s.Count(pat); got != want {
					t.Fatalf("Count(%v) = %d, want %d", pat, got, want)
				}
			}
		}
	}
}

func TestMatchesProperty(t *testing.T) {
	f := func(s, p, o, s2, p2, o2 uint8) bool {
		pat := tr(dict.ID(s%3), dict.ID(p%3), dict.ID(o%3)) // allow wildcards
		val := tr(dict.ID(s2%3+1), dict.ID(p2%3+1), dict.ID(o2%3+1))
		got := pat.Matches(val)
		want := (pat.S == 0 || pat.S == val.S) && (pat.P == 0 || pat.P == val.P) && (pat.O == 0 || pat.O == val.O)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

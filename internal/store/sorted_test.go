package store

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dict"
)

// TestSortedIDsAllShapes checks the three leaf shapes against Match, across
// short and long leaves and after mutations.
func TestSortedIDsAllShapes(t *testing.T) {
	st := New()
	rng := rand.New(rand.NewSource(7))
	// One (s,p) pair with a long leaf, plus scattered noise.
	s, p := dict.ID(1), dict.ID(2)
	for i := 0; i < 48; i++ {
		st.Add(Triple{S: s, P: p, O: dict.ID(100 + rng.Intn(200))})
	}
	for i := 0; i < 50; i++ {
		st.Add(Triple{
			S: dict.ID(1 + rng.Intn(5)),
			P: dict.ID(1 + rng.Intn(5)),
			O: dict.ID(100 + rng.Intn(50)),
		})
	}

	checkShape := func(pat Triple, pick func(Triple) dict.ID) {
		t.Helper()
		want := []dict.ID{}
		for _, tr := range st.Match(pat) {
			want = append(want, pick(tr))
		}
		slices.Sort(want)
		got, ok := st.SortedIDs(pat)
		if !ok && len(want) > 0 {
			t.Fatalf("SortedIDs(%v): ok=false but %d matches exist", pat, len(want))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("SortedIDs(%v) = %v, want %v", pat, got, want)
		}
		if !slices.IsSorted(got) {
			t.Fatalf("SortedIDs(%v) not sorted: %v", pat, got)
		}
	}
	checkAll := func() {
		t.Helper()
		for a := dict.ID(1); a <= 5; a++ {
			for b := dict.ID(1); b <= 5; b++ {
				checkShape(Triple{S: a, P: b}, func(tr Triple) dict.ID { return tr.O })
			}
			for o := dict.ID(100); o < 150; o += 7 {
				checkShape(Triple{P: a, O: o}, func(tr Triple) dict.ID { return tr.S })
				checkShape(Triple{S: a, O: o}, func(tr Triple) dict.ID { return tr.P })
			}
		}
	}
	checkAll()

	// Mutate the long leaf: the sorted view must follow.
	st.Add(Triple{S: s, P: p, O: 999})
	st.Remove(Triple{S: s, P: p, O: st.Match(Triple{S: s, P: p})[0].O})
	checkAll()
}

// TestCursorSeekGE drives the galloping cursor against a linear reference.
func TestCursorSeekGE(t *testing.T) {
	st := New()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		st.Add(Triple{S: 1, P: 2, O: dict.ID(2 + rng.Intn(500))})
	}
	ids, _ := st.SortedIDs(Triple{S: 1, P: 2})
	for trial := 0; trial < 500; trial++ {
		start := rng.Intn(len(ids) + 1)
		target := dict.ID(rng.Intn(520))
		c := Cursor{ids: ids, pos: start}
		c.SeekGE(target)
		// Reference: first index ≥ start with ids[i] >= target.
		want := len(ids)
		for i := start; i < len(ids); i++ {
			if ids[i] >= target {
				want = i
				break
			}
		}
		if c.pos != want {
			t.Fatalf("SeekGE(%d) from %d: pos=%d want %d (ids=%v)", target, start, c.pos, want, ids)
		}
	}
	// API smoke: Postings + iteration order.
	c := st.Postings(Triple{S: 1, P: 2})
	var walked []dict.ID
	for ; c.Valid(); c.Next() {
		walked = append(walked, c.ID())
	}
	if !slices.Equal(walked, ids) {
		t.Fatalf("cursor walk %v != sorted ids %v", walked, ids)
	}
	if c.Len() != 0 {
		t.Fatalf("exhausted cursor Len = %d", c.Len())
	}
	// NewCursor over a plain slice: Pos is the index SeekGE lands on.
	c = NewCursor(ids)
	for i, id := range ids {
		if c.SeekGE(id); c.Pos() != i || c.ID() != id {
			t.Fatalf("NewCursor SeekGE(%d): pos %d, want %d", id, c.Pos(), i)
		}
	}
}

// TestIntersectSorted drives both merge paths (two-pointer and galloping
// cursor) against a map-based reference across size skews.
func TestIntersectSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gen := func(n, universe int) []dict.ID {
		set := map[dict.ID]bool{}
		for len(set) < n {
			set[dict.ID(1+rng.Intn(universe))] = true
		}
		out := make([]dict.ID, 0, n)
		for id := range set {
			out = append(out, id)
		}
		slices.Sort(out)
		return out
	}
	for trial := 0; trial < 200; trial++ {
		na, nb := 1+rng.Intn(30), 1+rng.Intn(30)
		if trial%3 == 0 {
			nb = na * (16 + rng.Intn(20)) // force the galloping path
		}
		a, b := gen(na, 200), gen(nb, max(nb*2, 400))
		got := IntersectSorted(nil, a, b)
		inB := map[dict.ID]bool{}
		for _, id := range b {
			inB[id] = true
		}
		var want []dict.ID
		for _, id := range a {
			if inB[id] {
				want = append(want, id)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: IntersectSorted(%v, %v) = %v, want %v", trial, a, b, got, want)
		}
		if got2 := IntersectSorted(nil, b, a); !slices.Equal(got2, want) {
			t.Fatalf("trial %d: not commutative: %v vs %v", trial, got2, want)
		}
	}
}

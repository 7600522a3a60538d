package store

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"repro/internal/dict"
)

// addBuilt returns the store per-triple Add makes of ts: the reference every
// bulk build is compared with.
func addBuilt(ts []Triple) *Store {
	s := New()
	for _, t := range ts {
		s.Add(t)
	}
	return s
}

// encoding returns v's canonical binary encoding.
func encoding(t *testing.T, v BinaryView) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := v.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkBuilt requires st to encode byte for byte like ref, the store
// per-triple Add builds from the same triples, to be in canonical form, and
// to have the trie shapes of shape, or of ref when shape is nil.
func checkBuilt(t *testing.T, tag string, st, ref, shape *Store) {
	t.Helper()
	if !bytes.Equal(encoding(t, st), encoding(t, ref)) {
		t.Fatalf("%s: encoding differs from per-triple Add of the same %d triples", tag, ref.Len())
	}
	checkCanonical(t, tag, &st.tables)
	if shape == nil {
		shape = ref
	}
	checkSameShape(t, tag, &st.tables, &shape.tables)
}

// checkHolds requires v to hold exactly the triples of brute.
func checkHolds(t *testing.T, tag string, v interface {
	Contains(Triple) bool
	Len() int
}, brute map[Triple]struct{}) {
	t.Helper()
	if v.Len() != len(brute) {
		t.Fatalf("%s: Len = %d, oracle holds %d", tag, v.Len(), len(brute))
	}
	for tr := range brute {
		if !v.Contains(tr) {
			t.Fatalf("%s: %v missing", tag, tr)
		}
	}
}

// checkSameShape requires the tries of x and y to have the same nodes, keys
// and entry placement.
func checkSameShape(t *testing.T, tag string, x, y *tables) {
	t.Helper()
	for _, p := range [][2]*index{{&x.spo, &y.spo}, {&x.pos, &y.pos}, {&x.osp, &y.osp}} {
		if !sameNodes(p[0].ls.root, p[1].ls.root) || !sameNodes(p[0].as.root, p[1].as.root) {
			t.Fatalf("%s: trie shapes differ", tag)
		}
	}
}

func sameNodes[V any](a, b *hnode[V]) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.entBm != b.entBm || a.kidBm != b.kidBm || len(a.ents) != len(b.ents) || len(a.kids) != len(b.kids) {
		return false
	}
	for i := range a.ents {
		if a.ents[i].k != b.ents[i].k {
			return false
		}
	}
	for i := range a.kids {
		if !sameNodes(a.kids[i], b.kids[i]) {
			return false
		}
	}
	return true
}

// trieDepth returns the depth of the deepest node below n (the root is at
// depth 0).
func trieDepth[V any](n *hnode[V]) int {
	d := 0
	for _, k := range n.kids {
		d = max(d, 1+trieDepth(k))
	}
	return d
}

// bulkRound is the battery at scale: a few thousand random triples, skewed
// so that some leaves and side-table sets are long runs and, in a quarter
// of the rounds, with IDs too sparse for the builder's counting sort. Build,
// the set CloneSet takes of a build, and Clone must match per-triple Add
// byte for byte and shape for shape, with tries that reach depth 3; then
// random Add/Remove on the built store — at epoch 0, in the build arenas —
// and then on it and on its clone, the two sharing every node under
// copy-on-write, must agree with the oracle, and neither store nor the
// snapshot the clone was taken over may see the other's writes. Build has
// one code path, which builds the three indexes on concurrent goroutines,
// so every round checks that path against per-triple Add.
func bulkRound(t *testing.T, rng *rand.Rand, seed int64) {
	t.Helper()
	scale := dict.ID(1)
	if rng.Intn(4) == 0 {
		scale = 1<<19 + 1
	}
	id := func(n int) dict.ID { return dict.ID(rng.Intn(n)+1) * scale }
	randTriple := func() Triple {
		if rng.Intn(3) == 0 {
			return Triple{id(8), id(4), id(1 << 12)}
		}
		return Triple{id(1 << 12), id(1 << 12), id(1 << 12)}
	}
	n := 3000 + rng.Intn(3000)
	ts := make([]Triple, 0, n)
	for len(ts) < n {
		tr := randTriple()
		ts = append(ts, tr)
		if rng.Intn(10) == 0 {
			ts = append(ts, tr) // a duplicate
		}
	}
	// A draw this size almost always gives a trie of depth 3; the rare one
	// that falls short grows until it does.
	ref := addBuilt(ts)
	for trieDepth(ref.spo.ls.root) < 3 {
		tr := randTriple()
		ts = append(ts, tr)
		ref.Add(tr)
	}
	brute := map[Triple]struct{}{}
	for _, tr := range ts {
		brute[tr] = struct{}{}
	}
	tag := func(what string) string { return fmt.Sprintf("bulk seed %d %s", seed, what) }
	set := Build(append([]Triple(nil), ts...)).CloneSet()
	refSet := NewTripleSet()
	for _, tr := range ts {
		refSet.Add(tr)
	}
	if !bytes.Equal(encoding(t, set), encoding(t, refSet)) || !sameNodes(set.ix.ls.root, refSet.ix.ls.root) || !sameNodes(set.ix.as.root, refSet.ix.as.root) {
		t.Fatalf("%s: CloneSet of Build differs from per-triple TripleSet.Add", tag("set"))
	}
	st := Build(ts)
	checkBuilt(t, tag("build"), st, ref, nil)
	if d := trieDepth(st.spo.ls.root); d < 3 {
		t.Fatalf("%s: SPO trie depth %d, want ≥ 3", tag("build"), d)
	}
	decoded, err := ReadBinary(encoding(t, st))
	if err != nil {
		t.Fatalf("%s: %v", tag("decode"), err)
	}
	checkBuilt(t, tag("decode"), decoded, ref, nil)
	decodedSet, err := ReadSetBinary(encoding(t, set), 0)
	if err != nil || !sameNodes(decodedSet.ix.ls.root, refSet.ix.ls.root) || !sameNodes(decodedSet.ix.as.root, refSet.ix.as.root) {
		t.Fatalf("%s: decoded set differs in shape from per-triple TripleSet.Add (%v)", tag("decode"), err)
	}

	mutate := func(what string, s *Store, b map[Triple]struct{}, steps int) {
		all := bruteTriples(b)
		for i := 0; i < steps; i++ {
			x := randTriple()
			if rng.Intn(2) == 0 {
				x = all[rng.Intn(len(all))]
			}
			_, had := b[x]
			if rng.Intn(2) == 0 {
				b[x] = struct{}{}
				if got := s.Add(x); got != !had {
					t.Fatalf("%s: Add(%v) = %v, want %v", tag(what), x, got, !had)
				}
			} else {
				delete(b, x)
				if got := s.Remove(x); got != had {
					t.Fatalf("%s: Remove(%v) = %v, want %v", tag(what), x, got, had)
				}
			}
		}
	}
	mutate("epoch 0", st, brute, 300)
	cp := st.Clone()
	checkBuilt(t, tag("clone"), cp, addBuilt(bruteTriples(brute)), st)
	cpBrute := maps.Clone(brute)
	snap := st.Snapshot()
	frozen := maps.Clone(brute)
	mutate("after clone", st, brute, 300)
	mutate("copy", cp, cpBrute, 300)
	checkHolds(t, tag("live"), st, brute)
	checkHolds(t, tag("snapshot"), snap, frozen)
	checkHolds(t, tag("copy"), cp, cpBrute)
	checkCanonical(t, tag("live"), &st.tables)
	checkCanonical(t, tag("snapshot"), &snap.tables)
	checkCanonical(t, tag("copy"), &cp.tables)
}

// FuzzBuild decodes bytes into triples — the first byte picks dense IDs or
// ones too sparse for the counting sort, then every three bytes are one
// triple — and requires Build, the set CloneSet takes of a build, and Clone
// to match per-triple Add byte for byte and shape for shape, duplicates,
// empty input and a single ID included. Like bulkRound, it checks the one,
// concurrent, build path.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 1})
	f.Add([]byte{0, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{1, 1, 2, 3, 1, 2, 4, 2, 2, 3, 1, 2, 3})
	f.Add([]byte{0, 5, 5, 5, 5, 5, 6, 5, 6, 5, 6, 5, 5, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			data = []byte{0}
		}
		scale := dict.ID(1)
		if data[0]&1 == 1 {
			scale = 1 << 23
		}
		var ts []Triple
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			ts = append(ts, Triple{dict.ID(b[0]) + 1, dict.ID(b[1]) + 1, dict.ID(b[2]) + 1})
			ts[len(ts)-1].S *= scale
			ts[len(ts)-1].P *= scale
			ts[len(ts)-1].O *= scale
		}
		brute := map[Triple]struct{}{}
		refSet := NewTripleSet()
		for _, tr := range ts {
			brute[tr] = struct{}{}
			refSet.Add(tr)
		}
		set := Build(append([]Triple(nil), ts...)).CloneSet()
		if set.Len() != len(brute) || !bytes.Equal(encoding(t, set), encoding(t, refSet)) || !sameNodes(set.ix.ls.root, refSet.ix.ls.root) || !sameNodes(set.ix.as.root, refSet.ix.as.root) {
			t.Fatal("CloneSet of Build differs from per-triple TripleSet.Add")
		}
		st := Build(ts)
		if st.Len() != len(brute) {
			t.Fatalf("Build Len = %d, want %d", st.Len(), len(brute))
		}
		ref := addBuilt(bruteTriples(brute))
		checkBuilt(t, "build", st, ref, nil)
		checkBuilt(t, "clone", st.Clone(), ref, st)
	})
}

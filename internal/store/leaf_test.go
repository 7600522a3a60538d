package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/dict"
)

// The leaf tests all work on triples (x, leafP, leafO): the (leafP, leafO)
// POS leaf holds every x, and so does the OSP side-table sub set under leafO,
// so both kinds of postings run grow long together.
const (
	leafP = dict.ID(2)
	leafO = dict.ID(3)
)

var leafPat = Triple{P: leafP, O: leafO}

func leafTriple(x dict.ID) Triple { return Triple{x, leafP, leafO} }

// checkLeaf requires view to hold exactly the subjects in want under leafPat,
// through every read that reaches the leaf: Count, SortedIDs (strictly
// ascending), ForEachMatch, and Contains over the whole ID domain
// [1, domain].
func checkLeaf(t *testing.T, tag string, view readView, want map[dict.ID]struct{}, domain dict.ID) {
	t.Helper()
	if got := view.Count(leafPat); got != len(want) {
		t.Fatalf("%s: Count = %d, want %d", tag, got, len(want))
	}
	ids, ok := view.SortedIDs(leafPat)
	if ok != (len(want) > 0) || len(ids) != len(want) {
		t.Fatalf("%s: SortedIDs = %d ids ok=%v, want %d", tag, len(ids), ok, len(want))
	}
	for i, id := range ids {
		if i > 0 && id <= ids[i-1] {
			t.Fatalf("%s: SortedIDs not strictly ascending at %d: %d after %d", tag, i, id, ids[i-1])
		}
		if _, in := want[id]; !in {
			t.Fatalf("%s: SortedIDs holds %d, not in oracle", tag, id)
		}
	}
	seen := 0
	view.ForEachMatch(leafPat, func(tr Triple) bool {
		if _, in := want[tr.S]; !in || tr.P != leafP || tr.O != leafO {
			t.Fatalf("%s: ForEachMatch yielded %v, not in oracle", tag, tr)
		}
		seen++
		return true
	})
	if seen != len(want) {
		t.Fatalf("%s: ForEachMatch yielded %d triples, want %d", tag, seen, len(want))
	}
	for x := dict.ID(1); x <= domain; x++ {
		_, in := want[x]
		if got := view.Contains(leafTriple(x)); got != in {
			t.Fatalf("%s: Contains(%d) = %v, want %v", tag, x, got, in)
		}
	}
}

// driveLeaf applies random adds (2 in 3) and removes over [1, domain] to the
// store and the oracle until the leaf holds target IDs, calling mid every
// `every` steps.
func driveLeaf(t *testing.T, rng *rand.Rand, s *Store, want map[dict.ID]struct{}, domain dict.ID, target, every int, mid func(step int)) {
	t.Helper()
	for step := 1; len(want) < target; step++ {
		x := dict.ID(rng.Intn(int(domain)) + 1)
		_, had := want[x]
		if rng.Intn(3) < 2 {
			want[x] = struct{}{}
			if got := s.Add(leafTriple(x)); got == had {
				t.Fatalf("step %d: Add(%d) = %v with had=%v", step, x, got, had)
			}
		} else {
			delete(want, x)
			if got := s.Remove(leafTriple(x)); got != had {
				t.Fatalf("step %d: Remove(%d) = %v with had=%v", step, x, got, had)
			}
		}
		if step%every == 0 {
			mid(step)
		}
	}
}

type leafSnap struct {
	snap *Snapshot
	want map[dict.ID]struct{}
	step int
}

// TestLongLeafAgainstOracle drives one leaf to 10k IDs in random order with
// removals mixed in and checks it against a set oracle — on the live store,
// on snapshots taken mid-stream (which must keep their frozen contents while
// the writer keeps shifting the shared run), and again on a store decoded
// from the binary image, whose leaves alias the image bytes and are then
// mutated both in place and through copy-on-write.
func TestLongLeafAgainstOracle(t *testing.T) {
	const (
		domain = dict.ID(20000)
		target = 10000
	)
	rng := rand.New(rand.NewSource(*storeSeed))
	s := New()
	want := map[dict.ID]struct{}{}
	var snaps []leafSnap
	freeze := func(s *Store, step int) {
		frozen := make(map[dict.ID]struct{}, len(want))
		for x := range want {
			frozen[x] = struct{}{}
		}
		snaps = append(snaps, leafSnap{s.Snapshot(), frozen, step})
	}
	driveLeaf(t, rng, s, want, domain, target, 4000, func(step int) { freeze(s, step) })
	checkLeaf(t, "live", s, want, domain)
	for _, sn := range snaps {
		checkLeaf(t, fmt.Sprintf("snapshot at step %d", sn.step), sn.snap, sn.want, domain)
	}

	var img bytes.Buffer
	if err := s.WriteBinary(&img); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadBinaryChecked(img.Bytes(), domain)
	if err != nil {
		t.Fatal(err)
	}
	checkLeaf(t, "loaded", loaded, want, domain)
	if lo := uintptr(unsafe.Pointer(unsafe.SliceData(img.Bytes()))); hostLittleEndian && lo%4 == 0 {
		ids, _ := loaded.SortedIDs(leafPat)
		if at := uintptr(unsafe.Pointer(unsafe.SliceData(ids))); at < lo || at >= lo+uintptr(img.Len()) {
			t.Fatal("loaded leaf does not alias the image")
		}
	}
	// Keep going on the loaded store: in place at epoch 0 first, then with
	// snapshots pinning the aliased runs.
	snaps = snaps[:0]
	driveLeaf(t, rng, loaded, want, domain, target+500, 1<<30, func(int) {})
	checkLeaf(t, "loaded, mutated in place", loaded, want, domain)
	driveLeaf(t, rng, loaded, want, domain, target+1500, 700, func(step int) { freeze(loaded, step) })
	checkLeaf(t, "loaded, mutated under snapshots", loaded, want, domain)
	for _, sn := range snaps {
		checkLeaf(t, fmt.Sprintf("snapshot of loaded at step %d", sn.step), sn.snap, sn.want, domain)
	}
}

// TestCopyOnWriteLeafAllocation bounds what the first write after a snapshot
// pays for a long leaf: a flat copy of each run it has to unshare, with
// append's growth slack — not a rebuild. A TripleSet write unshares one
// n-ID run (the leaf); a Store write unshares two (the POS leaf and the OSP
// side-table sub set). Each case takes the cheapest of several
// snapshot-then-write rounds.
func TestCopyOnWriteLeafAllocation(t *testing.T) {
	const (
		n      = 8192
		perRun = 2 * 4 * n // bytes: twice the run
		slop   = 4 << 10   // trie path copies (inline leaves ride in them), headers
		rounds = 8
	)
	set := NewTripleSet()
	st := New()
	for o := dict.ID(1); o <= n; o++ {
		set.Add(Triple{1, 2, 2 * o})
		st.Add(leafTriple(2 * o))
	}
	// Even IDs are present, odd ones absent; round i touches the ID pair
	// around 4000+2i, in the middle of the run.
	cases := []struct {
		name  string
		runs  uint64
		write func(i dict.ID)
	}{
		{"TripleSet/add", 1, func(i dict.ID) { set.Snapshot(); set.Add(Triple{1, 2, 4001 + 2*i}) }},
		{"TripleSet/remove", 1, func(i dict.ID) { set.Snapshot(); set.Remove(Triple{1, 2, 4000 + 2*i}) }},
		{"Store/add", 2, func(i dict.ID) { st.Snapshot(); st.Add(leafTriple(4001 + 2*i)) }},
		{"Store/remove", 2, func(i dict.ID) { st.Snapshot(); st.Remove(leafTriple(4000 + 2*i)) }},
	}
	for _, c := range cases {
		least := ^uint64(0)
		for i := dict.ID(0); i < rounds; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c.write(i)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if budget := c.runs*perRun + slop; least > budget {
			t.Errorf("%s: first write after Snapshot allocated %d bytes, budget %d", c.name, least, budget)
		}
		t.Logf("%s: %d bytes for %d run(s) of %d bytes", c.name, least, c.runs, 4*n)
	}
}

// TestLongLeafConcurrentSortedReads has 8 readers take SortedIDs and
// Postings of one long leaf on successive snapshots while the writer keeps
// inserting into and removing from that same leaf. Readers take no lock; the
// race detector is the judge, the ordering check the witness.
func TestLongLeafConcurrentSortedReads(t *testing.T) {
	const (
		readers = 8
		rounds  = 200
		domain  = 4096
	)
	s := New()
	for x := dict.ID(1); x <= domain; x += 2 {
		s.Add(leafTriple(x))
	}
	var (
		current atomic.Pointer[Snapshot]
		done    atomic.Bool
		wg      sync.WaitGroup
	)
	current.Store(s.Snapshot())
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			for !done.Load() {
				snap := current.Load()
				ids, _ := snap.SortedIDs(leafPat)
				if len(ids) != snap.Count(leafPat) || !slices.IsSorted(ids) {
					t.Errorf("reader: SortedIDs len=%d sorted=%v, Count=%d", len(ids), slices.IsSorted(ids), snap.Count(leafPat))
					return
				}
				c := snap.Postings(leafPat)
				for prev := dict.None; c.Valid(); c.Next() {
					if c.ID() <= prev {
						t.Errorf("reader: cursor not ascending at %d", c.ID())
						return
					}
					prev = c.ID()
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(*storeSeed))
	for i := 0; i < rounds; i++ {
		for j := 0; j < 8; j++ {
			x := leafTriple(dict.ID(rng.Intn(domain) + 1))
			if rng.Intn(2) == 0 {
				s.Add(x)
			} else {
				s.Remove(x)
			}
		}
		current.Store(s.Snapshot())
	}
	done.Store(true)
	wg.Wait()
}

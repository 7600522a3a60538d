package store

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dict"
)

// inlineScript walks leaves and side-table sets of all three indexes through
// every size transition of the inline form — 0→1→2→3 and back down to 0,
// then up again — as seen from the SPO leaf (1,2,?), the POS leaf (2,9,?)
// and the side-table sets under subject 1, predicate 2 and object 9.
var inlineScript = []struct {
	add bool
	t   Triple
}{
	{true, Triple{1, 2, 9}},  // SPO leaf (1,2): 0→1; every set under 1, 2, 9 appears inline
	{true, Triple{1, 2, 8}},  // SPO leaf 1→2: inline → run; POS set under 2: 1→2
	{true, Triple{3, 2, 9}},  // POS leaf (2,9): 1→2; OSP set under 9: 1→2
	{true, Triple{1, 2, 7}},  // SPO leaf 2→3
	{true, Triple{1, 4, 9}},  // SPO set under 1: 1→2
	{false, Triple{1, 2, 7}}, // SPO leaf 3→2
	{false, Triple{1, 2, 9}}, // SPO leaf 2→1: re-inlined; POS leaf (2,9) 2→1
	{false, Triple{1, 4, 9}}, // SPO set under 1: 2→1: re-inlined
	{true, Triple{1, 2, 9}},  // SPO leaf 1→2 again, from a re-inlined slot
	{false, Triple{1, 2, 8}}, // 2→1
	{false, Triple{3, 2, 9}}, // POS leaf (2,9) 2→1, OSP set under 9 2→1
	{false, Triple{1, 2, 9}}, // every set empties: the store is empty
	{true, Triple{1, 2, 8}},  // 0→1 after a full drain
}

// TestInlineTransitions runs inlineScript with a snapshot after every step,
// after every other step (so some transitions run on writer-owned runs in
// place) and never (the epoch-0 single-walk path). After every step the
// live store must match the oracle and be in canonical form; at the end
// every snapshot must still read exactly as at its step — SortedIDs, Count
// and ForEachMatch over every pattern shape — however its slots were
// re-inlined or grown into runs since.
func TestInlineTransitions(t *testing.T) {
	const maxID = 9
	for _, every := range []int{1, 2, 0} {
		t.Run(fmt.Sprintf("snapshot every %d", every), func(t *testing.T) {
			s := New()
			brute := map[Triple]struct{}{}
			var snaps []diffSnap
			for step, op := range inlineScript {
				if op.add {
					if !s.Add(op.t) {
						t.Fatalf("step %d: Add(%v) = false", step, op.t)
					}
					brute[op.t] = struct{}{}
				} else {
					if !s.Remove(op.t) {
						t.Fatalf("step %d: Remove(%v) = false", step, op.t)
					}
					delete(brute, op.t)
				}
				tag := fmt.Sprintf("step %d", step)
				checkViews(t, tag, s, brute, maxID)
				checkCanonical(t, tag, &s.tables)
				if every > 0 && step%every == 0 {
					frozen := make(map[Triple]struct{}, len(brute))
					for tr := range brute {
						frozen[tr] = struct{}{}
					}
					snaps = append(snaps, diffSnap{s.Snapshot(), frozen, step})
				}
			}
			if every == 0 && s.Epoch() != 0 {
				t.Fatalf("never snapshotted, yet at epoch %d", s.Epoch())
			}
			for _, sn := range snaps {
				tag := fmt.Sprintf("snapshot of step %d", sn.step)
				checkViews(t, tag, sn.snap, sn.brute, maxID)
				checkCanonical(t, tag, &sn.snap.tables)
			}
		})
	}
}

// TestSingletonReadsDoNotAllocate pins the inline form's read contract:
// SortedIDs hands out a view of the trie slot, so reading a one-ID leaf —
// through SortedIDs, Contains or Count, on the store or on a snapshot —
// allocates nothing.
func TestSingletonReadsDoNotAllocate(t *testing.T) {
	s := New()
	for i := dict.ID(1); i <= 64; i++ {
		s.Add(Triple{i, 100 + i, 200 + i})
	}
	snap := s.Snapshot()
	s.Add(Triple{1, 101, 199}) // the live store moves on; the snapshot keeps the singleton
	pats := []Triple{{S: 5, P: 105}, {P: 105, O: 205}, {S: 5, O: 205}}
	for name, v := range map[string]readView{"store": s, "snapshot": snap} {
		for _, pat := range pats {
			var n int
			if allocs := testing.AllocsPerRun(100, func() {
				ids, _ := v.SortedIDs(pat)
				n += len(ids) + v.Count(pat)
				if v.Contains(Triple{5, 105, 205}) {
					n++
				}
			}); allocs != 0 {
				t.Errorf("%s %v: %v allocs per singleton read, want 0", name, pat, allocs)
			}
			if ids, ok := v.SortedIDs(pat); !ok || len(ids) != 1 {
				t.Errorf("%s %v: SortedIDs = %v, %v; want one ID", name, pat, ids, ok)
			}
		}
	}
	if ids, _ := snap.SortedIDs(Triple{S: 1, P: 101}); len(ids) != 1 || ids[0] != 201 {
		t.Errorf("snapshot's singleton leaf (1,101) = %v after the live store grew it, want [201]", ids)
	}
}

// TestAllSingletonCodecRoundTrip encodes a store in which every leaf and
// every side-table set of all three indexes holds one ID — nothing but
// inline slots — and requires the decoded store to be canonical, to hold no
// run at all, to re-encode to the same bytes and to keep working as a
// store: its singletons grow into runs and shrink back.
func TestAllSingletonCodecRoundTrip(t *testing.T) {
	const n = 500
	s := New()
	brute := map[Triple]struct{}{}
	for i := dict.ID(1); i <= n; i++ {
		tr := Triple{i, n + i, 2*n + i}
		s.Add(tr)
		brute[tr] = struct{}{}
	}
	var img bytes.Buffer
	if err := s.WriteBinary(&img); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadBinaryChecked(img.Bytes(), 3*n)
	if err != nil {
		t.Fatal(err)
	}
	checkCanonical(t, "loaded", &loaded.tables)
	for name, ix := range map[string]*index{"spo": &loaded.spo, "pos": &loaded.pos, "osp": &loaded.osp} {
		ix.ls.forEach(func(k uint64, l *leaf) bool {
			if l.run != nil {
				t.Fatalf("%s leaf %#x decoded as a run of %d", name, k, len(l.run.ids))
			}
			return true
		})
		ix.as.forEach(func(a uint64, e *aSub) bool {
			if e.sub != nil {
				t.Fatalf("%s side-table set of %d decoded as a run of %d", name, a, len(e.sub.ids))
			}
			return true
		})
	}
	var again bytes.Buffer
	if err := loaded.WriteBinary(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.Bytes(), again.Bytes()) {
		t.Fatal("re-encoding the decoded all-singleton store changed its bytes")
	}
	for i, tr := range []Triple{{7, n + 7, 1}, {7, 1, 2*n + 7}, {1, n + 7, 2*n + 7}} {
		loaded.Snapshot()
		loaded.Add(tr)
		brute[tr] = struct{}{}
		checkCanonical(t, fmt.Sprintf("grown %d", i), &loaded.tables)
	}
	for tr := range brute {
		if tr.S == 7 || tr.P == n+7 || tr.O == 2*n+7 {
			loaded.Remove(tr)
			delete(brute, tr)
			checkCanonical(t, fmt.Sprintf("shrunk by %v", tr), &loaded.tables)
		}
	}
	if loaded.Len() != len(brute) {
		t.Fatalf("Len = %d, want %d", loaded.Len(), len(brute))
	}
	for tr := range brute {
		if !loaded.Contains(tr) {
			t.Fatalf("lost %v", tr)
		}
	}
}

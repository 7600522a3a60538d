package store

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dict"
)

// sortedTriples returns the store contents as a canonically-ordered slice.
func sortedTriples(src interface {
	ForEachMatch(Triple, func(Triple) bool)
}) []Triple {
	var out []Triple
	src.ForEachMatch(Triple{}, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	// insertion sort — test-sized inputs
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func less(a, b Triple) bool {
	if a.S != b.S {
		return a.S < b.S
	}
	if a.P != b.P {
		return a.P < b.P
	}
	return a.O < b.O
}

func equalTriples(a, b []Triple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSnapshotIsolation is the core contract: a snapshot's contents never
// change, whatever the store does afterwards — adds, removes, re-adds,
// leaf growth — and a fresh snapshot always shows the live state.
func TestSnapshotIsolation(t *testing.T) {
	s := New()
	s.Add(Triple{1, 2, 3})
	s.Add(Triple{1, 2, 4})
	s.Add(Triple{5, 2, 3})

	snap := s.Snapshot()
	want := sortedTriples(snap)
	if len(want) != 3 {
		t.Fatalf("snapshot has %d triples, want 3", len(want))
	}

	// Mutate the live store in every way that touches shared structure.
	s.Remove(Triple{1, 2, 3})
	s.Add(Triple{1, 2, 9})
	for o := dict.ID(10); o < 42; o++ {
		s.Add(Triple{1, 2, o}) // grows the (1,2) leaf the snapshot shares
	}
	s.Remove(Triple{5, 2, 3}) // deletes a leaf and its subs entry

	if got := sortedTriples(snap); !equalTriples(got, want) {
		t.Errorf("snapshot changed under mutation:\n got %v\nwant %v", got, want)
	}
	if snap.Contains(Triple{1, 2, 9}) {
		t.Error("snapshot sees post-snapshot insert")
	}
	if !snap.Contains(Triple{5, 2, 3}) {
		t.Error("snapshot lost triple removed later from the store")
	}
	if snap.Len() != 3 {
		t.Errorf("snapshot Len = %d, want 3", snap.Len())
	}

	// A fresh snapshot sees the live state; the old one is unaffected.
	snap2 := s.Snapshot()
	if snap2.Contains(Triple{1, 2, 3}) || !snap2.Contains(Triple{1, 2, 9}) {
		t.Error("fresh snapshot does not reflect live state")
	}
	if snap2.Epoch() <= snap.Epoch() {
		t.Errorf("epochs not monotonic: %d then %d", snap.Epoch(), snap2.Epoch())
	}
}

// TestSnapshotCaching: consecutive Snapshot calls with no mutation in
// between return the identical snapshot; any mutation invalidates it.
func TestSnapshotCaching(t *testing.T) {
	s := New()
	s.Add(Triple{1, 2, 3})
	a, b := s.Snapshot(), s.Snapshot()
	if a != b {
		t.Error("Snapshot() not cached across quiescent calls")
	}
	s.Add(Triple{1, 2, 4})
	if c := s.Snapshot(); c == a {
		t.Error("Snapshot() cache not invalidated by Add")
	}
	// A duplicate add is a no-op but still counts as a mutation call; the
	// snapshot may be re-taken, but contents must match the live store.
	s.Add(Triple{1, 2, 4})
	if got, want := sortedTriples(s.Snapshot()), sortedTriples(&s.tables); !equalTriples(got, want) {
		t.Errorf("snapshot after duplicate add: got %v want %v", got, want)
	}
}

// TestSnapshotSortedIDs: sorted reads work on snapshots, including long
// leaves, and stay valid while the store mutates the shared leaf.
func TestSnapshotSortedIDs(t *testing.T) {
	s := New()
	n := 37
	for o := 1; o <= n; o++ {
		s.Add(Triple{1, 2, dict.ID(o)})
	}
	snap := s.Snapshot()
	s.Add(Triple{1, 2, dict.ID(n + 1)}) // COW-copies the shared leaf

	ids, ok := snap.SortedIDs(Triple{S: 1, P: 2})
	if !ok || len(ids) != n {
		t.Fatalf("snapshot SortedIDs: ok=%v len=%d, want %d", ok, len(ids), n)
	}
	for i := range ids {
		if ids[i] != dict.ID(i+1) {
			t.Fatalf("ids[%d] = %d, want %d", i, ids[i], i+1)
		}
		if i > 0 && ids[i] <= ids[i-1] {
			t.Fatalf("ids not ascending at %d", i)
		}
	}
	live, _ := s.SortedIDs(Triple{S: 1, P: 2})
	if len(live) != n+1 {
		t.Fatalf("live SortedIDs len = %d, want %d", len(live), n+1)
	}
}

// TestSnapshotPropertyVsClone drives random interleaved mutations and
// snapshots, checking every pinned snapshot, and a Clone taken at the same
// instant, against a brute-force set frozen at the pin — the executable
// definition of snapshot isolation. The reference is independent of the
// store: a clone shares every node with the snapshot, so an in-place write
// to a shared node would change both alike.
func TestSnapshotPropertyVsClone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	brute := map[Triple]struct{}{}
	type pin struct {
		snap  *Snapshot
		clone *Store
		brute map[Triple]struct{}
	}
	var pins []pin
	id := func() dict.ID { return dict.ID(1 + rng.Intn(24)) }
	check := func(step int) {
		t.Helper()
		for i, p := range pins {
			for _, v := range []readView{p.snap, p.clone} {
				checkHolds(t, fmt.Sprintf("step %d pin %d", step, i), v, p.brute)
				v.ForEachMatch(Triple{}, func(tr Triple) bool {
					if _, ok := p.brute[tr]; !ok {
						t.Fatalf("step %d pin %d: %v not in the frozen reference", step, i, tr)
					}
					return true
				})
			}
		}
	}
	for step := 0; step < 4000; step++ {
		tr := Triple{id(), id(), id()}
		switch rng.Intn(10) {
		case 0: // pin a new snapshot + clone beside a frozen reference
			pins = append(pins, pin{snap: s.Snapshot(), clone: s.Clone(), brute: maps.Clone(brute)})
			if len(pins) > 6 {
				pins = pins[1:]
			}
		case 1, 2, 3: // remove
			s.Remove(tr)
			delete(brute, tr)
		default: // add
			s.Add(tr)
			brute[tr] = struct{}{}
		}
		if step%400 == 0 {
			check(step)
		}
	}
	check(4000)
	// Final deep check including Count agreement on the partial shapes.
	for i, p := range pins {
		for a := dict.ID(1); a < 25; a++ {
			for b := dict.ID(1); b < 25; b++ {
				pat := Triple{S: a, P: b}
				want := len(bruteMatch(p.brute, pat))
				if p.snap.Count(pat) != want || p.clone.Count(pat) != want {
					t.Fatalf("pin %d: Count(%v) = %d (snapshot), %d (clone), want %d", i, pat, p.snap.Count(pat), p.clone.Count(pat), want)
				}
			}
			pat := Triple{P: a}
			want := len(bruteMatch(p.brute, pat))
			if p.snap.Count(pat) != want || p.clone.Count(pat) != want {
				t.Fatalf("pin %d: Count(%v) = %d (snapshot), %d (clone), want %d", i, pat, p.snap.Count(pat), p.clone.Count(pat), want)
			}
		}
	}
}

// TestSnapshotConcurrentReaders hammers snapshots from reader goroutines
// while the writer keeps mutating — primarily a -race exercise proving the
// frozen-leaf sharing discipline holds, including concurrent sorted reads of
// shared long leaves.
func TestSnapshotConcurrentReaders(t *testing.T) {
	s := New()
	for o := 1; o <= 48; o++ {
		s.Add(Triple{1, 2, dict.ID(o)})
		s.Add(Triple{dict.ID(o), 3, 4})
	}
	const readers = 4
	const steps = 300

	snaps := make(chan *Snapshot, readers*4)
	var wg sync.WaitGroup
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			for snap := range snaps {
				want := snap.Len()
				got := 0
				snap.ForEachMatch(Triple{}, func(Triple) bool { got++; return true })
				if got != want {
					t.Errorf("reader: scan found %d triples, Len says %d", got, want)
					return
				}
				if ids, ok := snap.SortedIDs(Triple{S: 1, P: 2}); ok {
					for i := 1; i < len(ids); i++ {
						if ids[i] <= ids[i-1] {
							t.Errorf("reader: unsorted sorted view")
							return
						}
					}
				}
				_ = snap.Count(Triple{P: 3})
			}
		}()
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < steps; i++ {
		for j := 0; j < 5; j++ {
			tr := Triple{dict.ID(1 + rng.Intn(50)), dict.ID(2 + rng.Intn(3)), dict.ID(1 + rng.Intn(90))}
			if rng.Intn(3) == 0 {
				s.Remove(tr)
			} else {
				s.Add(tr)
			}
		}
		snap := s.Snapshot()
		for r := 0; r < readers; r++ {
			select {
			case snaps <- snap:
			default:
			}
		}
	}
	close(snaps)
	wg.Wait()
}

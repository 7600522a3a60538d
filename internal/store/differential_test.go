package store

import (
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dict"
)

// Seed and volume knobs for the randomized store suites. CI's store-stress
// job cranks rounds up (make test-store-stress); the defaults keep the
// battery inside the ordinary `go test ./...` budget. Reproduce a failure
// with -store.seed=N (every failure message carries the round seed).
var (
	storeSeed   = flag.Int64("store.seed", 1, "base seed for the randomized store suites")
	storeRounds = flag.Int("store.rounds", 8, "rounds of the differential battery")
	storeSteps  = flag.Int("store.steps", 400, "mutation steps per differential round")
)

// readView is the query surface the battery checks; the live Store and its
// Snapshots both satisfy it.
type readView interface {
	Contains(Triple) bool
	Len() int
	Count(Triple) int
	ForEachMatch(Triple, func(Triple) bool)
	SortedIDs(Triple) ([]dict.ID, bool)
	Predicates() []dict.ID
	Objects(dict.ID) []dict.ID
}

// bruteMatch is the oracle, with zero cleverness: a scan of a flat triple set.
func bruteMatch(set map[Triple]struct{}, pat Triple) map[Triple]bool {
	out := map[Triple]bool{}
	for tr := range set {
		if pat.Matches(tr) {
			out[tr] = true
		}
	}
	return out
}

// checkViews sweeps every pattern shape over the ID domain and requires the
// store to agree with the brute-force set — exactly, element for element, on
// the order-carrying surfaces (SortedIDs, Predicates, Objects).
func checkViews(t *testing.T, tag string, view readView, brute map[Triple]struct{}, maxID dict.ID) {
	t.Helper()
	if view.Len() != len(brute) {
		t.Fatalf("%s: Len = %d, brute = %d", tag, view.Len(), len(brute))
	}
	for s := dict.ID(0); s <= maxID; s++ {
		for p := dict.ID(0); p <= maxID; p++ {
			for o := dict.ID(0); o <= maxID; o++ {
				pat := Triple{s, p, o}
				want := bruteMatch(brute, pat)
				if got := view.Count(pat); got != len(want) {
					t.Fatalf("%s: Count(%v) = %d, want %d", tag, pat, got, len(want))
				}
				seen := map[Triple]bool{}
				view.ForEachMatch(pat, func(tr Triple) bool {
					if seen[tr] || !want[tr] {
						t.Fatalf("%s: ForEachMatch(%v) yielded %v (dup or not in brute)", tag, pat, tr)
					}
					seen[tr] = true
					return true
				})
				if len(seen) != len(want) {
					t.Fatalf("%s: ForEachMatch(%v) yielded %d, want %d", tag, pat, len(seen), len(want))
				}
				// Exactly-one-wildcard shapes additionally pin the sorted-leaf
				// surface the engine's merge joins consume: the brute matches'
				// free component, ascending.
				var free func(Triple) dict.ID
				switch {
				case s != 0 && p != 0 && o == 0:
					free = func(tr Triple) dict.ID { return tr.O }
				case s == 0 && p != 0 && o != 0:
					free = func(tr Triple) dict.ID { return tr.S }
				case s != 0 && p == 0 && o != 0:
					free = func(tr Triple) dict.ID { return tr.P }
				default:
					continue
				}
				ids := []dict.ID{}
				for tr := range want {
					ids = append(ids, free(tr))
				}
				slices.Sort(ids)
				if got, ok := view.SortedIDs(pat); ok != (len(ids) > 0) || !slices.Equal(got, ids) {
					t.Fatalf("%s: SortedIDs(%v) = (%v,%v), want %v", tag, pat, got, ok, ids)
				}
			}
		}
	}
	preds := []dict.ID{}
	for p := dict.ID(1); p <= maxID; p++ {
		objs := []dict.ID{}
		for o := dict.ID(1); o <= maxID; o++ {
			if len(bruteMatch(brute, Triple{P: p, O: o})) > 0 {
				objs = append(objs, o)
			}
		}
		if len(objs) > 0 {
			preds = append(preds, p)
		}
		if got := view.Objects(p); !slices.Equal(got, objs) {
			t.Fatalf("%s: Objects(%d) = %v, want %v", tag, p, got, objs)
		}
	}
	if got := view.Predicates(); !slices.Equal(got, preds) {
		t.Fatalf("%s: Predicates = %v, want %v", tag, got, preds)
	}
}

// diffSnap is one snapshot with the oracle state frozen beside it and the
// step it was taken at (for failure messages).
type diffSnap struct {
	snap  *Snapshot
	brute map[Triple]struct{}
	step  int
}

// diffCopy is the side of a Clone that the live store left behind: a second
// writable store sharing the live one's nodes, with its own oracle beside it
// and the step it was taken at. The battery keeps writing to both.
type diffCopy struct {
	st    *Store
	brute map[Triple]struct{}
	step  int
}

// TestDifferentialBattery drives randomized interleavings of
// Add/Remove/Snapshot/query — and whole-store Build steps, after which the
// writer carries on at epoch 0 in the build arenas, and Clone steps, after
// which the live store and the copy it leaves behind are two writable
// versions sharing every node, both written from then on — through the
// store and a brute-force set and requires them to answer identically: on
// the live store, on every snapshot, including snapshots that stay live
// across many later mutations, and on each copy a Clone left behind. Each
// round then runs the same steps at a scale whose tries reach a node at
// depth 3 (bulkRound). Runs in CI under -race; the store-stress job repeats
// it at -store.rounds=1000.
func TestDifferentialBattery(t *testing.T) {
	for round := 0; round < *storeRounds; round++ {
		seed := *storeSeed + int64(round)
		rng := rand.New(rand.NewSource(seed))
		differentialRound(t, rng, seed)
		bulkRound(t, rng, seed)
	}
}

// bruteTriples lists an oracle set, in map order.
func bruteTriples(brute map[Triple]struct{}) []Triple {
	ts := make([]Triple, 0, len(brute))
	for tr := range brute {
		ts = append(ts, tr)
	}
	return ts
}

func differentialRound(t *testing.T, rng *rand.Rand, seed int64) {
	t.Helper()
	maxID := dict.ID(rng.Intn(7) + 4) // [4, 10]: dense collisions, leaves fill and empty
	st := New()
	brute := map[Triple]struct{}{}
	var (
		snaps  []diffSnap
		copies []diffCopy
	)
	tag := func(step int, what string) string {
		return fmt.Sprintf("seed %d step %d %s", seed, step, what)
	}
	randID := func() dict.ID { return dict.ID(rng.Intn(int(maxID)) + 1) }
	for step := 0; step < *storeSteps; step++ {
		x := Triple{randID(), randID(), randID()}
		switch op := rng.Intn(100); {
		case op < 44: // Add
			_, had := brute[x]
			brute[x] = struct{}{}
			if got := st.Add(x); got != !had {
				t.Fatalf("%s: Add(%v) = %v, want %v", tag(step, "add"), x, got, !had)
			}
		case op < 70: // Remove
			_, had := brute[x]
			delete(brute, x)
			if got := st.Remove(x); got != had {
				t.Fatalf("%s: Remove(%v) = %v, want %v", tag(step, "remove"), x, got, had)
			}
		case op < 80: // Snapshot store and oracle at the same point
			snaps = append(snaps, diffSnap{st.Snapshot(), maps.Clone(brute), step})
			if len(snaps) > 4 {
				snaps = slices.Delete(snaps, 0, 1)
			}
		case op < 82: // rebuild the live store in one pass from the oracle
			st = Build(bruteTriples(brute))
			checkBuilt(t, tag(step, "build"), st, addBuilt(bruteTriples(brute)), nil)
		case op < 85: // Clone; either side carries on as the live store
			c := st.Clone()
			checkBuilt(t, tag(step, "clone"), c, addBuilt(bruteTriples(brute)), st)
			if rng.Intn(2) == 0 {
				st, c = c, st
			}
			copies = append(copies, diffCopy{c, maps.Clone(brute), step})
			if len(copies) > 2 {
				copies = slices.Delete(copies, 0, 1)
			}
		case op < 93: // write a left-behind copy, sharing nodes with the live store
			if len(copies) > 0 {
				c := copies[rng.Intn(len(copies))]
				_, had := c.brute[x]
				if rng.Intn(2) == 0 {
					c.brute[x] = struct{}{}
					if got := c.st.Add(x); got != !had {
						t.Fatalf("%s: copy (taken step %d) Add(%v) = %v, want %v", tag(step, "copy add"), c.step, x, got, !had)
					}
				} else {
					delete(c.brute, x)
					if got := c.st.Remove(x); got != had {
						t.Fatalf("%s: copy (taken step %d) Remove(%v) = %v, want %v", tag(step, "copy remove"), c.step, x, got, had)
					}
				}
			}
		case op < 96: // drop a snapshot
			if len(snaps) > 0 {
				i := rng.Intn(len(snaps))
				snaps = slices.Delete(snaps, i, i+1)
			}
		default: // spot check one random pattern everywhere (wildcards included)
			pat := Triple{dict.ID(rng.Intn(int(maxID) + 1)), dict.ID(rng.Intn(int(maxID) + 1)), dict.ID(rng.Intn(int(maxID) + 1))}
			if got, want := st.Count(pat), len(bruteMatch(brute, pat)); got != want {
				t.Fatalf("%s: Count(%v) = %d, want %d", tag(step, "spot"), pat, got, want)
			}
			for i, sn := range snaps {
				if got, want := sn.snap.Count(pat), len(bruteMatch(sn.brute, pat)); got != want {
					t.Fatalf("%s: snap[%d] (taken step %d) Count(%v) = %d, want %d",
						tag(step, "spot"), i, sn.step, pat, got, want)
				}
			}
			for i, c := range copies {
				if got, want := c.st.Count(pat), len(bruteMatch(c.brute, pat)); got != want {
					t.Fatalf("%s: copy[%d] (taken step %d) Count(%v) = %d, want %d",
						tag(step, "spot"), i, c.step, pat, got, want)
				}
			}
		}
	}
	// Full sweep on the live store, on every surviving snapshot and on every
	// copy: the snapshots must still show exactly the state frozen at their
	// step, and the copies exactly their own writes, no matter what the
	// writer did since.
	checkViews(t, tag(*storeSteps, "live"), st, brute, maxID)
	checkCanonical(t, tag(*storeSteps, "live"), &st.tables)
	for i, sn := range snaps {
		checkViews(t, tag(sn.step, fmt.Sprintf("snap[%d]", i)), sn.snap, sn.brute, maxID)
		checkCanonical(t, tag(sn.step, fmt.Sprintf("snap[%d]", i)), &sn.snap.tables)
	}
	for i, c := range copies {
		checkViews(t, tag(c.step, fmt.Sprintf("copy[%d]", i)), c.st, c.brute, maxID)
		checkCanonical(t, tag(c.step, fmt.Sprintf("copy[%d]", i)), &c.st.tables)
	}
}

package reason

import (
	"repro/internal/dict"
	"repro/internal/store"
)

// scratch holds reusable variable-binding buffers for rule matching. The
// join inner loop (forEachInstantiation and the re-derivation check) used to
// allocate fresh []dict.ID binding vectors on every call, which dominated
// the allocation profile of saturation; each Materialization owns one
// scratch, so the hot path reuses the same few words instead. Not safe for
// concurrent use — which matches the store's own concurrency contract.
type scratch struct {
	b, b2, b3 []dict.ID
	// conclusions buffers the results of one instantiation enumeration so
	// callbacks run only after the store iteration has finished — the store
	// forbids mutation during ForEachMatch, and the seminaive callback Adds
	// conclusions to the store.
	conclusions []store.Triple
}

// grow ensures all three buffers have length n. Only b is cleared to
// dict.None (the "unbound" marker matchPattern expects); b2 and b3 are
// always fully overwritten by copy before use.
func (sc *scratch) grow(n int) {
	if cap(sc.b) < n {
		sc.b = make([]dict.ID, n)
		sc.b2 = make([]dict.ID, n)
		sc.b3 = make([]dict.ID, n)
	}
	sc.b = sc.b[:n]
	sc.b2 = sc.b2[:n]
	sc.b3 = sc.b3[:n]
	for i := range sc.b {
		sc.b[i] = dict.None
	}
}

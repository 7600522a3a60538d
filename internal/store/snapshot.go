package store

// Snapshot is an immutable point-in-time view of a Store. It exposes every
// read method of the store (ForEachMatch, Count, SortedIDs, Contains, …) and
// is safe for unlimited concurrent readers, including while the originating
// store keeps mutating: a snapshot's triples never change after Snapshot
// returns.
//
// Snapshots are cheap on both sides: taking one is O(1) — a shallow copy of
// the three index root structs, sharing every trie node and postings run —
// and the writer's continued mutations pay only an O(trie depth) path copy
// for the first touch of each index path per epoch (copy-on-write on the
// persistent tries), never a per-snapshot scan of the index. Any number of
// snapshots may be live at once; old ones keep sharing whatever the writer
// has not replaced. That cost model is what makes snapshot-per-query reads,
// long-lived pinned views and checkpoint-while-writing all practical.
//
// Memory: a snapshot retains the nodes and leaves it shares for as long as
// it is referenced. Dropping every reference to a snapshot releases whatever
// the live store has since replaced.
//
//webreason:frozen
type Snapshot struct {
	tables
	epoch uint64
}

// Epoch returns the mutation epoch the snapshot was taken at. Epochs are
// monotonically increasing per store — not globally — and advance by at
// least one between two snapshots separated by a mutation, so they order
// snapshots of one store and cheaply detect "nothing changed" (two Snapshot
// calls with no mutation in between return the same epoch, in fact the very
// same *Snapshot).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Snapshot returns an immutable view of the store's current contents. It
// must be called from the writer side (i.e. serialized with mutations, like
// every mutation method); the returned Snapshot can then be handed to any
// number of concurrent readers, typically through an atomic pointer swapped
// after each mutation batch — or taken per query, which the O(1) cost makes
// affordable.
//
// Consecutive calls with no intervening mutation return the same snapshot.
func (s *Store) Snapshot() *Snapshot {
	if s.snap == nil {
		s.snap = &Snapshot{tables: s.tables, epoch: s.epoch}
		s.shared = true
	}
	return s.snap
}

// Epoch returns the store's current mutation epoch (see Snapshot.Epoch).
func (s *Store) Epoch() uint64 { return s.epoch }

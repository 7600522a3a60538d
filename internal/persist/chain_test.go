package persist

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/rdf"
)

// histRec is one record of an undamaged chain: its WAL generation, the
// offset just past it, and its content.
type histRec struct {
	gen uint64
	end int64
	m   Mutation
}

// chainHistory is an undamaged data directory, as file images by name, and
// the history it holds.
type chainHistory struct {
	names  []string // the chain's files, plus a WAL one generation past the newest
	files  map[string][]byte
	snaps  []uint64  // snapshot generations
	recs   []histRec // every record, in order
	tipGen uint64    // the newest WAL generation
}

// buildChainHistory writes a chain of three generations, each under its own
// term (a promotion starts each of wal-2 and wal-3), with a snapshot at the
// start of generations 2 and 3 beside the WALs they cover, so recovery can
// fall back from either.
func buildChainHistory(t testing.TB) *chainHistory {
	dir := t.TempDir()
	h := &chainHistory{files: map[string][]byte{}, snaps: []uint64{2, 3}, tipGen: 3}
	batches := [][]Mutation{
		{{Triples: []rdf.Triple{triple(1), triple(2)}}, {Del: true, Triples: []rdf.Triple{triple(1)}}},
		{{Triples: []rdf.Triple{triple(3)}}, {Triples: []rdf.Triple{triple(4), triple(5)}}},
		{{Del: true, Triples: []rdf.Triple{triple(3)}}, {Triples: []rdf.Triple{triple(6)}}},
	}
	for term, batch := range batches {
		db, err := Open(dir, Options{Sync: SyncNever, Term: uint64(term)})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range batch {
			if err := db.Append(m.Del, m.Triples); err != nil {
				t.Fatal(err)
			}
			pos := db.TipPos()
			h.recs = append(h.recs, histRec{gen: pos.Gen, end: pos.Off, m: m})
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i, g := range h.snaps {
		if _, err := writeSnapshotFile(OS, dir, g, uint64(i+1), mkState(t, i+2, i == 1), 0); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "LOCK" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		h.names = append(h.names, e.Name())
		h.files[e.Name()] = b
	}
	h.names = append(h.names, filepath.Base(walPath(dir, h.tipGen+1)))
	return h
}

// damage applies fuzz-chosen damage to a copy of the chain's files, five
// bytes an operation: op, file, a 16-bit offset counted from the end of the
// file, and a value. It returns the damaged images.
func (h *chainHistory) damage(ops []byte) map[string][]byte {
	files := map[string][]byte{}
	for name, b := range h.files {
		files[name] = slices.Clone(b)
	}
	for n := 0; len(ops) >= 5 && n < 8; ops, n = ops[5:], n+1 {
		name := h.names[int(ops[1])%len(h.names)]
		b, ok := files[name]
		back, x := int(ops[2])<<8|int(ops[3]), ops[4]
		switch ops[0] % 4 {
		case 0: // truncate
			if ok {
				files[name] = b[:len(b)-back%(len(b)+1)]
			}
		case 1: // flip bits of one byte
			if ok && len(b) > 0 {
				if x == 0 {
					x = 0xFF
				}
				b[len(b)-1-back%len(b)] ^= x
			}
		case 2: // delete
			delete(files, name)
		case 3: // leave a file shorter than a WAL header, creating it if absent
			if !ok {
				b = encodeWALHeader(h.tipGen+1, h.tipGen, 0)
			}
			files[name] = b[:min(len(b), int(x)%walHeaderLen)]
		}
	}
	return files
}

// recovered is what a recovery exposes: the loaded snapshot's generation (0
// when none), the records above it, and the position appends continue from.
type recovered struct {
	snap uint64
	recs []Mutation
	pos  ChainPos
}

func writeFiles(t *testing.T, files map[string][]byte) string {
	dir := t.TempDir()
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func dbRecovered(db *DB) recovered {
	r := recovered{recs: db.tail, pos: db.TipPos()}
	if db.State() != nil {
		r.snap = db.State().Generation
	}
	return r
}

// mirrorRecovered reads a freshly opened mirror. A mirror with no WAL run
// reports generation 0; the DB over the same prefix has created the run's
// first WAL, so the position is given as that file's header end.
func mirrorRecovered(m *Mirror) recovered {
	r := recovered{snap: m.SnapshotGen(), recs: m.Tail(), pos: m.Pos()}
	if r.pos.Gen == 0 {
		r.pos = ChainPos{Term: m.Term(), Gen: max(r.snap, 1), Off: int64(WALHeaderLen)}
	}
	return r
}

func sameRecovered(a, b recovered) bool {
	return a.snap == b.snap && a.pos == b.pos && len(a.recs) == len(b.recs) &&
		(len(a.recs) == 0 || reflect.DeepEqual(a.recs, b.recs))
}

// checkPrefix requires r to be a prefix of the undamaged history: a snapshot
// the history wrote (or none), then exactly the records from that snapshot's
// generation up to r's position, which sits at a WAL header or just past a
// record. Header terms are not checksummed, so the position's term is not
// compared with the history.
func (h *chainHistory) checkPrefix(t *testing.T, r recovered) {
	t.Helper()
	start := max(r.snap, 1)
	if r.snap != 0 && !slices.Contains(h.snaps, r.snap) {
		t.Fatalf("recovered snapshot %d, which the history never wrote", r.snap)
	}
	if r.pos.Gen < start || r.pos.Gen > h.tipGen {
		t.Fatalf("recovered position %s outside generations %d..%d", r.pos, start, h.tipGen)
	}
	var want []Mutation
	atRecord := r.pos.Off == int64(WALHeaderLen)
	for _, rec := range h.recs {
		if rec.gen < start {
			continue
		}
		if rec.gen < r.pos.Gen || rec.gen == r.pos.Gen && rec.end <= r.pos.Off {
			want = append(want, rec.m)
		}
		atRecord = atRecord || rec.gen == r.pos.Gen && rec.end == r.pos.Off
	}
	if !atRecord {
		t.Fatalf("recovered position %s is inside a record", r.pos)
	}
	if !sameRecovered(r, recovered{snap: r.snap, recs: want, pos: r.pos}) {
		t.Fatalf("recovered %d records up to %s above snapshot %d; the history holds %d there", len(r.recs), r.pos, r.snap, len(want))
	}
}

// FuzzChainRecover damages one real chain — appends under three terms and
// two snapshots — with fuzz-chosen truncations, bit flips, deletions and
// short files, then recovers two copies, one with Open and one with
// OpenMirror. The mirror must always recover a prefix of the undamaged
// history, the same prefix Open recovers whenever Open accepts the
// directory, and leave a directory Open accepts and recovers identically (a
// promotion).
func FuzzChainRecover(f *testing.F) {
	h := buildChainHistory(f)
	// op encodes one damage operation on a file at byte offset off from its
	// start.
	op := func(kind byte, name string, off int, x byte) []byte {
		back := len(h.files[name]) - 1 - off
		return []byte{kind, byte(slices.Index(h.names, name)), byte(back >> 8), byte(back), x}
	}
	wal := func(g uint64) string { return filepath.Base(walPath("", g)) }
	snap := func(g uint64) string { return filepath.Base(snapshotPath("", g)) }
	last := func(name string) int { return len(h.files[name]) - 1 }
	join := func(ops ...[]byte) []byte { return slices.Concat(ops...) }
	inFirstRecord := int(h.recs[2].end) - 2 // wal-2's first record, with a second behind it
	f.Add([]byte{})
	f.Add(op(1, snap(3), last(snap(3)), 1))                                         // unreadable newest snapshot
	f.Add(join(op(1, snap(3), last(snap(3)), 1), op(1, snap(2), last(snap(2)), 1))) // no snapshot loads
	f.Add(join(op(2, snap(3), 0, 0), op(2, snap(2), 0, 0)))                         // no snapshot at all
	f.Add(join(op(1, snap(3), last(snap(3)), 1), op(1, wal(2), last(wal(2)), 1)))   // torn non-newest WAL
	f.Add(join(op(1, snap(3), last(snap(3)), 1), op(1, wal(2), inFirstRecord, 1)))  // corrupt mid-log record
	f.Add(op(0, wal(3), last(wal(3))-3, 0))                                         // torn newest WAL
	f.Add([]byte{3, byte(len(h.names) - 1), 0, 0, 7})                               // torn rotation
	f.Add(join(op(2, snap(3), 0, 0), op(2, wal(2), 0, 0)))                          // generation gap
	f.Add(op(1, wal(3), len(walMagic)+2+8, 2))                                      // WAL term below the snapshot's
	f.Add(op(1, snap(3), len(snapMagic)+2, 1))                                      // snapshot header generation
	f.Fuzz(func(t *testing.T, ops []byte) {
		files := h.damage(ops)
		mirDir, dbDir := writeFiles(t, files), writeFiles(t, files)

		m, err := OpenMirror(mirDir, nil)
		if err != nil {
			t.Fatalf("OpenMirror: %v", err)
		}
		mr := mirrorRecovered(m)
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		h.checkPrefix(t, mr)

		if db, err := Open(dbDir, Options{Sync: SyncNever}); err == nil {
			dr := dbRecovered(db)
			db.Close()
			if !sameRecovered(dr, mr) {
				t.Fatalf("Open recovered snapshot %d, %d records, %s; the mirror snapshot %d, %d records, %s",
					dr.snap, len(dr.recs), dr.pos, mr.snap, len(mr.recs), mr.pos)
			}
		}

		pdb, err := Open(mirDir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("opening the recovered mirror as a data directory: %v", err)
		}
		defer pdb.Close()
		if pr := dbRecovered(pdb); !sameRecovered(pr, mr) {
			t.Fatalf("the promoted mirror recovered snapshot %d, %d records, %s; the mirror snapshot %d, %d records, %s",
				pr.snap, len(pr.recs), pr.pos, mr.snap, len(mr.recs), mr.pos)
		}
	})
}

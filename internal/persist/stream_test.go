package persist

import (
	"errors"
	"os"
	"testing"

	"repro/internal/rdf"
)

func TestChainPosCompare(t *testing.T) {
	cases := []struct {
		a, b ChainPos
		want int
	}{
		{ChainPos{}, ChainPos{}, 0},
		{ChainPos{Term: 1}, ChainPos{Term: 2}, -1},
		{ChainPos{Term: 2, Gen: 1, Off: 999}, ChainPos{Term: 2, Gen: 2}, -1},
		{ChainPos{Term: 1, Gen: 3, Off: 10}, ChainPos{Term: 1, Gen: 3, Off: 9}, 1},
		{ChainPos{Term: 1, Gen: 3, Off: 10}, ChainPos{Term: 1, Gen: 3, Off: 10}, 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%s.Compare(%s) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("%s.Compare(%s) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
}

func TestScanChain(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(false, []rdf.Triple{triple(1)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(mkState(t, 1, false)); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(false, []rdf.Triple{triple(2)}); err != nil {
		t.Fatal(err)
	}
	gen := db.Generation()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := ScanChain(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.SnapGens) != 1 || info.SnapGens[0] != gen {
		t.Fatalf("SnapGens = %v, want [%d]", info.SnapGens, gen)
	}
	if n := len(info.WALs); n == 0 || info.WALs[n-1].Gen != gen || info.WALs[n-1].Size <= int64(WALHeaderLen) {
		t.Fatalf("WALs = %+v, want the newest at gen %d with records", info.WALs, gen)
	}
	if info.FenceTerm != 0 {
		t.Fatalf("FenceTerm = %d, want 0", info.FenceTerm)
	}
	if err := WriteFence(OS, dir, 7); err != nil {
		t.Fatal(err)
	}
	if info, err = ScanChain(OS, dir); err != nil || info.FenceTerm != 7 {
		t.Fatalf("after WriteFence: FenceTerm = %d err = %v, want 7", info.FenceTerm, err)
	}
}

// TestFencedOpen pins the failover fencing contract: once a promotion writes
// a fence above a directory's chain term, the revived old primary's Open
// fails with ErrFenced, while a process carrying the fencing term (or a
// higher one) opens it fine.
func TestFencedOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(false, []rdf.Triple{triple(1)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := WriteFence(OS, dir, 3); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{}); !errors.Is(err, ErrFenced) {
		t.Fatalf("revived old primary: Open = %v, want ErrFenced", err)
	}
	var fe *FencedError
	if _, err := Open(dir, Options{Term: 2}); !errors.As(err, &fe) || fe.Fence != 3 {
		t.Fatalf("lower-termed Open = %v, want FencedError{Fence: 3}", err)
	}

	db, err = Open(dir, Options{Term: 3})
	if err != nil {
		t.Fatalf("Open with the fencing term: %v", err)
	}
	if db.Term() != 3 {
		t.Fatalf("Term = %d, want 3", db.Term())
	}
	if err := db.Append(false, []rdf.Triple{triple(2)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The chain itself now carries term 3: a plain reopen inherits it, and a
	// lower-termed one refuses even with the fence file gone.
	if err := os.Remove(fencePath(dir)); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("plain reopen of term-3 chain: %v", err)
	}
	if db.Term() != 3 {
		t.Fatalf("inherited Term = %d, want 3", db.Term())
	}
	n := 0
	for _, m := range collect(t, db) {
		n += len(m.Triples)
	}
	if n != 2 {
		t.Fatalf("recovered %d triples across terms, want 2", n)
	}
	db.Close()
	if _, err := Open(dir, Options{Term: 2}); !errors.Is(err, ErrFenced) {
		t.Fatalf("Open below chain term = %v, want ErrFenced", err)
	}
}

// TestTermBumpRotatesGeneration: minting a higher term must start a new
// generation whose header carries it, leaving the old term's files intact
// below.
func TestTermBumpRotatesGeneration(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(false, []rdf.Triple{triple(1)}); err != nil {
		t.Fatal(err)
	}
	gen0 := db.Generation()
	db.Close()

	db, err = Open(dir, Options{Term: 5})
	if err != nil {
		t.Fatal(err)
	}
	if db.Term() != 5 || db.Generation() <= gen0 {
		t.Fatalf("after term bump: term=%d gen=%d, want term 5 above gen %d", db.Term(), db.Generation(), gen0)
	}
	b, err := os.ReadFile(walPath(dir, db.Generation()))
	if err != nil {
		t.Fatal(err)
	}
	if h, err := parseWALHeader(b); err != nil || h.term != 5 {
		t.Fatalf("new WAL header term = %d err=%v, want 5", h.term, err)
	}
	if pos := db.TipPos(); pos.Term != 5 {
		t.Fatalf("TipPos = %s, want term 5", pos)
	}
	db.Close()
}

// shipChain mirrors everything a source directory currently holds, the way
// the replica layer does: adopt the newest snapshot if ahead, then append
// verified WAL chunks generation by generation.
func shipChain(t *testing.T, m *Mirror, dir string) {
	t.Helper()
	info, err := ScanChain(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(info.SnapGens); n > 0 {
		if snap := info.SnapGens[n-1]; snap > m.SnapshotGen() {
			b, err := OS.ReadFile(SnapshotFilePath(dir, snap))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.AdoptSnapshot(snap, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range info.WALs {
		gen, size := m.ActiveGen()
		var off int64
		switch {
		case e.Gen < gen || e.Gen < m.SnapshotGen():
			continue
		case e.Gen == gen:
			off = size
		}
		b, err := OS.ReadFileFrom(WALFilePath(dir, e.Gen), off)
		if err != nil {
			t.Fatal(err)
		}
		hdr := 0
		if off == 0 {
			hdr = WALHeaderLen
		}
		_, consumed, err := DecodeWALRecords(b[hdr:])
		if err != nil {
			t.Fatal(err)
		}
		if total := int64(hdr) + consumed; total > 0 {
			if err := m.AppendWAL(e.Gen, off, b[:total]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestMirrorShipRecoverPromote walks the whole standby lifecycle at the
// storage layer: ship a live chain, crash/reopen the mirror without losing
// the verified prefix, ship only the gap, then promote the mirror directory
// into a writable DB under a bumped term.
func TestMirrorShipRecoverPromote(t *testing.T) {
	srcDir, mirDir := t.TempDir(), t.TempDir()
	db, err := Open(srcDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(false, []rdf.Triple{triple(1), triple(2)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(mkState(t, 2, false)); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(false, []rdf.Triple{triple(3)}); err != nil {
		t.Fatal(err)
	}

	m, err := OpenMirror(mirDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	shipChain(t, m, srcDir)
	if m.SnapshotGen() != db.Generation() {
		t.Fatalf("mirror snapshot gen %d, want %d", m.SnapshotGen(), db.Generation())
	}
	pos := m.Pos()
	if srcPos := db.TipPos(); pos != srcPos {
		t.Fatalf("mirror pos %s, want source tip %s", pos, srcPos)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// More history lands on the source while the mirror is down.
	if err := db.Append(true, []rdf.Triple{triple(2)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The reopened mirror resumes from its persisted verified position: its
	// recovered state is snapshot + the locally-held tail, and shipping
	// fetches only the gap beyond pos.
	m, err = OpenMirror(mirDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Pos(); got != pos {
		t.Fatalf("recovered mirror pos %s, want %s", got, pos)
	}
	if ls := m.State(); ls == nil || ls.Generation != m.SnapshotGen() {
		t.Fatalf("recovered mirror state = %+v", ls)
	}
	n := 0
	for _, r := range m.Tail() {
		n += len(r.Triples)
	}
	if n != 1 { // the insert of triple(3); the delete was never shipped
		t.Fatalf("recovered mirror tail holds %d triples, want 1", n)
	}
	shipChain(t, m, srcDir)
	newTerm := m.Term() + 1
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Promotion: the mirror directory is a valid data directory; opening it
	// with a bumped term makes it the new primary, recovering the full
	// shipped tail (insert then delete).
	pdb, err := Open(mirDir, Options{Term: newTerm})
	if err != nil {
		t.Fatalf("promoting mirror dir: %v", err)
	}
	defer pdb.Close()
	if pdb.Term() != newTerm {
		t.Fatalf("promoted term %d, want %d", pdb.Term(), newTerm)
	}
	if pdb.State() == nil {
		t.Fatal("promoted DB lost the snapshot")
	}
	recs := collect(t, pdb)
	if len(recs) != 2 || recs[0].Del || !recs[1].Del ||
		recs[0].Triples[0] != triple(3) || recs[1].Triples[0] != triple(2) {
		t.Fatalf("promoted tail = %+v, want insert(3) then delete(2)", recs)
	}
	if err := pdb.Append(false, []rdf.Triple{triple(9)}); err != nil {
		t.Fatalf("write on promoted DB: %v", err)
	}
}

// TestMirrorTornTailTruncated: a mirror that died mid-append recovers to the
// verified record boundary and re-ships only from there.
func TestMirrorTornTailTruncated(t *testing.T) {
	srcDir, mirDir := t.TempDir(), t.TempDir()
	db, err := Open(srcDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(false, []rdf.Triple{triple(1)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(false, []rdf.Triple{triple(2)}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	m, err := OpenMirror(mirDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	shipChain(t, m, srcDir)
	gen, size := m.ActiveGen()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash mid-append: garbage half-record bytes beyond the verified size.
	f, err := os.OpenFile(walPath(mirDir, gen), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m, err = OpenMirror(mirDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if g, s := m.ActiveGen(); g != gen || s != size {
		t.Fatalf("recovered to gen %d size %d, want gen %d size %d", g, s, gen, size)
	}
	n := 0
	for _, r := range m.Tail() {
		n += len(r.Triples)
	}
	if n != 2 {
		t.Fatalf("recovered tail holds %d triples, want 2", n)
	}
}

// TestMirrorRefusesDeposedTerm: a mirror that already holds a term-T chain
// must refuse WAL bytes from a lower term — a revived old primary cannot
// feed a follower that moved on.
func TestMirrorRefusesDeposedTerm(t *testing.T) {
	oldDir, newDir, mirDir := t.TempDir(), t.TempDir(), t.TempDir()
	// The deposed primary's chain reaches generation 2 under term 0.
	old, err := Open(oldDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Append(false, []rdf.Triple{triple(1)}); err != nil {
		t.Fatal(err)
	}
	if err := old.Checkpoint(mkState(t, 1, false)); err != nil {
		t.Fatal(err)
	}
	if err := old.Append(false, []rdf.Triple{triple(2)}); err != nil {
		t.Fatal(err)
	}
	oldGen := old.Generation()
	old.Close()

	// The new primary's chain carries term 2; the mirror follows it.
	next, err := Open(newDir, Options{Term: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Append(false, []rdf.Triple{triple(3)}); err != nil {
		t.Fatal(err)
	}
	next.Close()

	m, err := OpenMirror(mirDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	shipChain(t, m, newDir)
	if m.Term() != 2 {
		t.Fatalf("mirror term %d, want 2", m.Term())
	}

	b, err := OS.ReadFile(WALFilePath(oldDir, oldGen))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendWAL(oldGen, 0, b); !errors.Is(err, ErrFenced) {
		t.Fatalf("AppendWAL from deposed term = %v, want ErrFenced", err)
	}
}

// TestMirrorStopsAtTornNonNewestWAL: a mirror whose non-newest WAL ends in a
// CRC-invalid record holds no verified prefix past that record. Recovery
// stops the run there — the records behind it in later WALs cannot apply —
// truncates the WAL to its verified bytes, deletes the later WAL, and resumes
// shipping inside the torn one, so the promoted directory holds every record
// in order.
func TestMirrorStopsAtTornNonNewestWAL(t *testing.T) {
	srcDir, mirDir := t.TempDir(), t.TempDir()
	db, err := Open(srcDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Append(false, []rdf.Triple{triple(1)}); err != nil {
		t.Fatal(err)
	}
	mark := db.TipPos()
	if err := db.Append(false, []rdf.Triple{triple(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.rotate(); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(true, []rdf.Triple{triple(1)}); err != nil {
		t.Fatal(err)
	}

	m, err := OpenMirror(mirDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	shipChain(t, m, srcDir)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip the last byte of wal-1's final record, which breaks its CRC.
	path := walPath(mirDir, 1)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	m, err = OpenMirror(mirDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g, s := m.ActiveGen(); g != 1 || s != mark.Off {
		t.Fatalf("recovered to gen %d size %d, want gen 1 size %d", g, s, mark.Off)
	}
	if tail := m.Tail(); len(tail) != 1 || tail[0].Del || tail[0].Triples[0] != triple(1) {
		t.Fatalf("recovered tail = %+v, want record 1 only", tail)
	}
	if _, err := os.Stat(walPath(mirDir, 2)); !os.IsNotExist(err) {
		t.Fatalf("wal-2 past the stop survived recovery: %v", err)
	}
	shipChain(t, m, srcDir)
	if pos := m.Pos(); pos != db.TipPos() {
		t.Fatalf("mirror pos %s after reshipping, want source tip %s", pos, db.TipPos())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	pdb, err := Open(mirDir, Options{})
	if err != nil {
		t.Fatalf("opening the mirror as a data directory: %v", err)
	}
	defer pdb.Close()
	recs := collect(t, pdb)
	if len(recs) != 2 || recs[0].Del || len(recs[0].Triples) != 2 || !recs[1].Del ||
		recs[0].Triples[1] != triple(2) || recs[1].Triples[0] != triple(1) {
		t.Fatalf("mirror tail = %+v, want insert(1, 2) then delete(1)", recs)
	}
}

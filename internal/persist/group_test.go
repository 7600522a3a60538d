package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rdf"
)

// groupTriples builds a small distinguishable batch for record i.
func groupTriples(i int) []rdf.Triple {
	return []rdf.Triple{rdf.T(
		rdf.NewIRI(fmt.Sprintf("http://group.example.org/s%d", i)),
		rdf.NewIRI("http://group.example.org/p"),
		rdf.NewIRI(fmt.Sprintf("http://group.example.org/o%d", i)),
	)}
}

// TestGroupCommitAcksInOrder pins the prefix contract of group commit: acks
// fire exactly once each, in staging order, with a nil error — so an ack for
// record i implies every record before i is durable too.
func TestGroupCommitAcksInOrder(t *testing.T) {
	db, err := Open(t.TempDir(), Options{Sync: SyncGroup, GroupDelay: 100 * time.Microsecond, CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		i := i
		if err := db.AppendAck(false, groupTriples(i), func(err error) {
			defer wg.Done()
			if err != nil {
				t.Errorf("record %d: ack error %v", i, err)
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}); err != nil {
			t.Fatalf("AppendAck %d: %v", i, err)
		}
	}
	wg.Wait()
	if len(order) != n {
		t.Fatalf("%d acks fired, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("ack %d fired for record %d: acks out of staging order (%v)", i, got, order[:i+1])
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitConcurrentProducersDurable hammers the synchronous Append
// path (stage + wait for the covering fsync) from concurrent producers and
// asserts every acknowledged record survives reopen — the group fsync must
// cover exactly what it acknowledged.
func TestGroupCommitConcurrentProducersDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncGroup, GroupDelay: 100 * time.Microsecond, CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	const producers, perProducer = 8, 16
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := db.Append(i%2 == 1, groupTriples(p*perProducer+i)); err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got, want := db2.TailLen(), producers*perProducer; got != want {
		t.Fatalf("recovered %d records, want %d", got, want)
	}
}

// openParked opens a SyncGroup DB whose background syncer stays parked until
// Close: the coalescing window is effectively infinite, and the lone-writer
// shortcut Open arms (fsync the first record at once instead of waiting the
// window out) is cleared, so no fsync or ack happens unless the test calls
// groupFlush itself.
func openParked(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(dir, Options{Sync: SyncGroup, GroupDelay: time.Hour, CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	db.loneWriter.Store(false)
	return db
}

// TestGroupCommitCrashBetweenStageAndFsync kills the directory (byte-level
// copy, nothing closed) while records sit staged behind an effectively
// infinite GroupDelay — the widest possible stage→fsync window. Recovery
// from the copy must see a clean prefix of the appended sequence: a process
// crash loses at most the unsynced suffix of runs, never a middle record,
// and here (page cache intact) nothing at all. Close must still complete
// promptly and deliver every pending ack under its final sync.
func TestGroupCommitCrashBetweenStageAndFsync(t *testing.T) {
	dir := t.TempDir()
	db := openParked(t, dir)
	const n = 10
	acked := make(chan error, n)
	for i := 0; i < n; i++ {
		if err := db.AppendAck(i%3 == 0, groupTriples(i), func(err error) { acked <- err }); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing can have been acked yet: the one-hour window has not elapsed.
	select {
	case err := <-acked:
		t.Fatalf("ack fired before the group window elapsed: %v", err)
	default:
	}

	// "kill -9": copy the on-disk bytes with the records staged but unsynced.
	killed := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(killed, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rec, err := Open(killed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A crash between stage and fsync loses at most the staged suffix; the
	// recovered tail must be a prefix of the appended sequence with every
	// record intact.
	if rec.TailLen() > n {
		t.Fatalf("recovered %d records from %d appends", rec.TailLen(), n)
	}
	for i, m := range rec.tail {
		want := groupTriples(i)
		if m.Del != (i%3 == 0) || len(m.Triples) != len(want) || m.Triples[0] != want[0] {
			t.Fatalf("recovered record %d = %+v, want del=%v %v", i, m, i%3 == 0, want)
		}
	}
	rec.Close()

	// Close on the live DB flushes the staged records under its final sync
	// and must complete long before the group window would have elapsed.
	done := make(chan error, 1)
	go func() { done <- db.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close blocked behind the group delay window")
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-acked:
			if err != nil {
				t.Fatalf("pending ack %d delivered error on close: %v", i, err)
			}
		default:
			t.Fatalf("only %d of %d pending acks delivered by Close", i, n)
		}
	}
}

// TestOpenRejectsUnknownSyncPolicy: an out-of-range policy must fail Open
// instead of silently staging records that no syncer will ever fsync.
func TestOpenRejectsUnknownSyncPolicy(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{Sync: SyncPolicy(42)}); err == nil {
		t.Fatal("Open accepted an unknown sync policy")
	}
}

// TestGroupCommitFsyncFailureIsSticky pins the failure half of the
// durable-prefix contract: when a covering group fsync fails, the staged
// acks receive the error AND the DB refuses every later append — a record
// under the failed fsync may be gone (the kernel reports an fsync error
// once, then clears it), so acknowledging anything behind it would lie.
func TestGroupCommitFsyncFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	// A parked background syncer lets the test drive groupFlush
	// deterministically.
	db := openParked(t, dir)
	acked := make(chan error, 1)
	if err := db.AppendAck(false, groupTriples(0), func(err error) { acked <- err }); err != nil {
		t.Fatal(err)
	}
	// Sabotage the covering fsync: swap in a closed handle.
	bad, err := os.Create(filepath.Join(t.TempDir(), "bad"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Close()
	db.mu.Lock()
	good := db.wal
	db.wal = bad
	db.mu.Unlock()
	db.groupFlush()
	if err := <-acked; err == nil {
		t.Fatal("ack reported durable despite the failed covering fsync")
	}
	if err := db.AppendAck(false, groupTriples(1), nil); err == nil {
		t.Fatal("append accepted after a failed group fsync")
	}
	// A record staged during the failing fsync (before the sticky error
	// landed, so it slipped past AppendAck's gate) must receive the sticky
	// error from the next flush — never a nil ack off a later, spuriously
	// succeeding fsync: it sits behind the durability hole.
	db.mu.Lock()
	db.wal = good
	db.staged = append(db.staged, func(err error) { acked <- err })
	db.syncPending = true
	db.mu.Unlock()
	db.groupFlush()
	if err := <-acked; err == nil {
		t.Fatal("record behind the durability hole acknowledged as durable")
	}
	if err := db.Close(); err == nil {
		t.Fatal("Close swallowed the sticky group-fsync failure")
	}
}

// TestRotateFsyncFailureIsSticky pins the same contract on the rotation
// path: a failed rotation fsync leaves the same durability hole as a failed
// group fsync and must refuse later appends.
func TestRotateFsyncFailureIsSticky(t *testing.T) {
	db := openParked(t, t.TempDir())
	if err := db.AppendAck(false, groupTriples(0), nil); err != nil {
		t.Fatal(err)
	}
	bad, err := os.Create(filepath.Join(t.TempDir(), "bad"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Close()
	db.mu.Lock()
	good := db.wal
	db.wal = bad
	db.mu.Unlock()
	if _, err := db.rotate(); err == nil {
		t.Fatal("rotation succeeded over a failing fsync")
	}
	if err := db.AppendAck(false, groupTriples(1), nil); err == nil {
		t.Fatal("append accepted after a failed rotation fsync")
	}
	db.mu.Lock()
	db.wal = good
	db.mu.Unlock()
	if err := db.Close(); err == nil {
		t.Fatal("Close swallowed the sticky rotation-fsync failure")
	}
}

// TestGroupCommitSyncsNilAckRecords pins that a record appended with no
// durability callback is still covered by a group fsync within the delay
// window: GroupDelay bounds every record's durability lag, not just the
// acknowledged ones (regression: the syncer used to skip the fsync when the
// staged-ack list was empty, leaving nil-ack records in the page cache
// indefinitely).
func TestGroupCommitSyncsNilAckRecords(t *testing.T) {
	db, err := Open(t.TempDir(), Options{Sync: SyncGroup, GroupDelay: time.Millisecond, CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AppendAck(false, groupTriples(0), nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		db.mu.Lock()
		pending := db.syncPending
		db.mu.Unlock()
		if !pending {
			return // a group fsync covered the record
		}
		if time.Now().After(deadline) {
			t.Fatal("nil-ack record never covered by a group fsync")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDecodeWALPayloadCountBound pins the triple-count sanity bound at its
// exact boundary: a payload whose claimed count exceeds what 6 bytes per
// triple admits must be rejected as corrupt *before* the decode loop (the
// old bound was one triple looser), while a count the length can hold
// proceeds past the bound check.
func TestDecodeWALPayloadCountBound(t *testing.T) {
	mk := func(count uint64, body int) []byte {
		b := []byte{opInsert}
		b = binary.AppendUvarint(b, count)
		return append(b, make([]byte, body)...)
	}
	// 12 body bytes hold at most 2 minimum-size triples; a claim of 3 was
	// admitted by the old `count > len/6+1` bound and must now be corrupt.
	_, err := decodeWALPayload(mk(3, 12))
	if err == nil || !strings.Contains(err.Error(), "exceeds record") {
		t.Fatalf("count 3 over 12 bytes: got %v, want the count bound to reject it", err)
	}
	// A claim of 2 over 12 bytes sits exactly on the bound and is real: a
	// zeroed body decodes as two minimum-size (6-byte) triples — the bound
	// must not overtighten.
	m2, err := decodeWALPayload(mk(2, 12))
	if err != nil || len(m2.Triples) != 2 {
		t.Fatalf("two minimum-size triples: %v (%d triples)", err, len(m2.Triples))
	}
	// Overflow safety: a count near 2^64 must hit the bound, not wrap.
	_, err = decodeWALPayload(mk(1<<63, 12))
	if err == nil || !strings.Contains(err.Error(), "exceeds record") {
		t.Fatalf("huge count: got %v, want the count bound to reject it", err)
	}
	// And a genuine record still round-trips.
	rec := appendWALRecord(nil, false, groupTriples(1))
	m, err := decodeWALPayload(rec[walRecHdrLen:])
	if err != nil || len(m.Triples) != 1 {
		t.Fatalf("valid record: %v (%d triples)", err, len(m.Triples))
	}
}

// TestDecodeWALWrapsTripleCause pins the wrap chain of a triple-level decode
// failure inside a WAL record: the error must satisfy errors.Is for both the
// WAL sentinel and the underlying term sentinel (the wrap used %v before,
// severing the cause from the Is/As chain).
func TestDecodeWALWrapsTripleCause(t *testing.T) {
	payload := []byte{opInsert}
	payload = binary.AppendUvarint(payload, 1)
	payload = append(payload, 0xFF, 0, 0, 0, 0, 0) // no term starts with tag 0xFF
	_, err := decodeWALPayload(payload)
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("errors.Is(err, ErrWALCorrupt) = false for %v", err)
	}
	if !errors.Is(err, rdf.ErrTermCorrupt) {
		t.Fatalf("errors.Is(err, rdf.ErrTermCorrupt) = false for %v; the term cause must stay in the chain", err)
	}
}

// TestDecodeWALBoundarySeedImage mirrors the FuzzWALDecode boundary seed as
// a deterministic test: a correctly framed record whose payload claims one
// more triple than its length admits is mid-log corruption, not a torn tail.
func TestDecodeWALBoundarySeedImage(t *testing.T) {
	img := walBoundaryCountImage()
	_, _, _, err := decodeWAL(img, 1)
	if err == nil || !strings.Contains(err.Error(), "exceeds record") {
		t.Fatalf("boundary image: got %v, want the count bound to reject it", err)
	}
}

// walBoundaryCountImage frames a CRC-valid record whose payload claims
// len/6+1 triples — the exact claim the pre-fix bound let through.
func walBoundaryCountImage() []byte {
	payload := []byte{opInsert}
	payload = binary.AppendUvarint(payload, 3)
	payload = append(payload, make([]byte, 12)...)
	img := encodeWALHeader(1, 0, 0)
	img = binary.LittleEndian.AppendUint32(img, uint32(len(payload)))
	img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(payload, crcTable))
	return append(img, payload...)
}

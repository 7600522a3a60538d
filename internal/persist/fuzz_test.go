package persist

import (
	"os"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// FuzzSnapshotDecode drives the full snapshot decoder (header, framing, CRC,
// dict/store/set codecs) with arbitrary bytes: it must reject or accept
// cleanly, never panic, and anything it accepts must survive an
// encode/decode round trip with identical content (uvarint fields may be
// encoded non-minimally in the input, so the byte images need not match —
// the content must).
func FuzzSnapshotDecode(f *testing.F) {
	seed := func(st State) {
		dir := f.TempDir()
		if _, err := writeSnapshotFile(OS, dir, 3, 1, st, 0); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(snapshotPath(dir, 3))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, uint64(3))
	}
	seed(mkState(f, 5, false))
	seed(mkState(f, 5, true))
	f.Add([]byte(snapMagic), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, gen uint64) {
		ls, err := decodeSnapshot(data, gen)
		if err != nil {
			return
		}
		// Accepted: re-encoding the loaded state must reproduce the input
		// byte for byte (same generation, same sections, canonical codecs).
		st := State{Dict: ls.Dict, DictLen: ls.Dict.Len(), BaseSet: ls.BaseSet}
		if ls.Saturated != nil {
			st.Saturated = ls.Saturated
		}
		dir := t.TempDir()
		if _, err := writeSnapshotFile(OS, dir, ls.Generation, ls.Term, st, 0); err != nil {
			t.Fatalf("re-encoding accepted snapshot: %v", err)
		}
		b, err := os.ReadFile(snapshotPath(dir, ls.Generation))
		if err != nil {
			t.Fatal(err)
		}
		ls2, err := decodeSnapshot(b, ls.Generation)
		if err != nil {
			t.Fatalf("re-decoding re-encoded snapshot: %v", err)
		}
		if ls2.Generation != ls.Generation || ls2.Dict.Len() != ls.Dict.Len() ||
			(ls2.Saturated == nil) != (ls.Saturated == nil) {
			t.Fatal("round trip changed snapshot shape")
		}
		if ls2.BaseSet.Len() != ls.BaseSet.Len() {
			t.Fatal("round trip changed base set size")
		}
		if ls.Saturated != nil {
			if ls2.Saturated.Len() != ls.Saturated.Len() {
				t.Fatal("round trip changed saturated size")
			}
			ls.Saturated.ForEachMatch(store.Triple{}, func(tr store.Triple) bool {
				if !ls2.Saturated.Contains(tr) {
					t.Fatalf("round trip lost %v", tr)
				}
				return true
			})
		}
	})
}

// FuzzWALDecode drives the WAL decoder with arbitrary bytes; it must never
// panic, and every record in the accepted prefix must re-encode to the exact
// bytes it was decoded from.
func FuzzWALDecode(f *testing.F) {
	valid := encodeWALHeader(1, 1, 0)
	valid = appendWALRecord(valid, false, []rdf.Triple{
		rdf.T(rdf.NewIRI("http://f/s"), rdf.NewIRI("http://f/p"), rdf.NewLiteral("o")),
	})
	valid = appendWALRecord(valid, true, []rdf.Triple{
		rdf.T(rdf.NewBlank("b"), rdf.NewIRI("http://f/p"), rdf.NewLangLiteral("x", "en")),
	})
	f.Add(valid, uint64(1))
	f.Add(valid[:len(valid)-3], uint64(1)) // torn tail
	f.Add([]byte(walMagic), uint64(0))
	// Boundary of the triple-count sanity bound: a CRC-valid record whose
	// payload claims len/6+1 triples, one more than the 6-bytes-per-triple
	// minimum admits (the exact claim the pre-fix bound let through).
	f.Add(walBoundaryCountImage(), uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, gen uint64) {
		recs, hdr, validLen, err := decodeWAL(data, gen)
		if err != nil {
			return
		}
		if validLen > int64(len(data)) {
			t.Fatalf("validLen %d beyond input %d", validLen, len(data))
		}
		// Re-encode the accepted records and decode again; the content must
		// survive exactly (byte images may differ for non-minimal uvarints).
		out := encodeWALHeader(gen, hdr.term, hdr.prev)
		for _, m := range recs {
			out = appendWALRecord(out, m.Del, m.Triples)
		}
		recs2, hdr2, validLen2, err := decodeWAL(out, gen)
		if err != nil || hdr2 != hdr || validLen2 != int64(len(out)) || len(recs2) != len(recs) {
			t.Fatalf("round trip: err=%v len=%d/%d recs=%d/%d", err, validLen2, len(out), len(recs2), len(recs))
		}
		for i := range recs {
			if recs2[i].Del != recs[i].Del || len(recs2[i].Triples) != len(recs[i].Triples) {
				t.Fatalf("record %d changed in round trip", i)
			}
			for j := range recs[i].Triples {
				if recs2[i].Triples[j] != recs[i].Triples[j] {
					t.Fatalf("triple %d/%d changed in round trip", i, j)
				}
			}
		}
	})
}

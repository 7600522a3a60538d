package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dict"
)

// benchTriples synthesises a LUBM-shaped workload: a few hot predicates,
// many subjects, zipf-ish object sharing — so leaf lengths are skewed the
// way a real graph's are.
func benchTriples(n int) []Triple {
	rng := rand.New(rand.NewSource(1))
	ts := make([]Triple, 0, n)
	for len(ts) < n {
		s := dict.ID(rng.Intn(n/4+1) + 100)
		p := dict.ID(rng.Intn(16) + 1)
		o := dict.ID(rng.Intn(n/8+1) + 50)
		ts = append(ts, Triple{s, p, o})
	}
	return ts
}

func benchStore(n int) (*Store, []Triple) {
	ts := benchTriples(n)
	s := New()
	for _, t := range ts {
		s.Add(t)
	}
	return s, ts
}

func BenchmarkStoreAdd(b *testing.B) {
	ts := benchTriples(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, t := range ts {
			s.Add(t)
		}
	}
}

func BenchmarkStoreContains(b *testing.B) {
	s, ts := benchStore(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Contains(ts[i%len(ts)]) {
			b.Fatal("missing triple")
		}
	}
}

func BenchmarkStoreForEachMatchSP(b *testing.B) {
	s, ts := benchStore(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		t := ts[i%len(ts)]
		s.ForEachMatch(Triple{S: t.S, P: t.P}, func(Triple) bool {
			n++
			return true
		})
	}
	if n == 0 {
		b.Fatal("no matches")
	}
}

func BenchmarkStoreForEachMatchP(b *testing.B) {
	s, ts := benchStore(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		s.ForEachMatch(Triple{P: ts[i%len(ts)].P}, func(Triple) bool {
			n++
			return true
		})
	}
	if n == 0 {
		b.Fatal("no matches")
	}
}

func BenchmarkStoreCount(b *testing.B) {
	s, ts := benchStore(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		t := ts[i%len(ts)]
		n += s.Count(Triple{S: t.S})
		n += s.Count(Triple{P: t.P})
		n += s.Count(Triple{O: t.O})
		n += s.Count(Triple{S: t.S, P: t.P})
	}
	if n == 0 {
		b.Fatal("no counts")
	}
}

func BenchmarkStoreRemoveAdd(b *testing.B) {
	s, ts := benchStore(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ts[i%len(ts)]
		s.Remove(t)
		s.Add(t)
	}
}

func BenchmarkStoreClone(b *testing.B) {
	s, _ := benchStore(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := s.Clone()
		if c.Len() != s.Len() {
			b.Fatal("bad clone")
		}
	}
}

// BenchmarkLeafInsertOrder prices the flat leaf by arrival order: n IDs into
// one (s,p) leaf of a fresh store. Ascending is an append per insert — the
// order dictionary IDs arrive in on every load and saturation path;
// descending shifts the whole run on every insert (an O(n) memmove each, the
// worst case), random shifts half of it on average.
func BenchmarkLeafInsertOrder(b *testing.B) {
	const n = 1 << 16
	perm := rand.New(rand.NewSource(1)).Perm(n)
	orders := []struct {
		name string
		at   func(i int) dict.ID // the i-th ID to insert
	}{
		{"ascending", func(i int) dict.ID { return dict.ID(i + 1) }},
		{"random", func(i int) dict.ID { return dict.ID(perm[i] + 1) }},
		{"descending", func(i int) dict.ID { return dict.ID(n - i) }},
	}
	for _, o := range orders {
		b.Run(fmt.Sprintf("%s/n=%d", o.name, n), func(b *testing.B) {
			ids := make([]dict.ID, n)
			for i := range ids {
				ids[i] = o.at(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := New()
				for _, id := range ids {
					s.Add(Triple{1, 2, id})
				}
				if s.Len() != n {
					b.Fatal("short leaf")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/insert")
		})
	}
}

// BenchmarkStoreSnapshot/afterWrite/bigLeaf is the copy-on-write worst case
// for a flat leaf: every iteration publishes a snapshot and then writes one
// ID into the middle of a 65,536-ID leaf, so each write pays the whole-leaf
// copy (and the matching side-table sub set's) before shifting half the run.
// The LUBM-shaped afterWrite case lives with the depts=6 store in the root
// package's concurrent_bench_test.go.
func BenchmarkStoreSnapshot(b *testing.B) {
	b.Run("afterWrite/bigLeaf", func(b *testing.B) {
		const n = 1 << 16
		s := New()
		for x := dict.ID(1); x <= n; x++ {
			s.Add(Triple{2 * x, 2, 3})
		}
		probe := Triple{n + 1, 2, 3} // odd: absent, lands mid-run
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s.Snapshot() == nil {
				b.Fatal("nil snapshot")
			}
			if i%2 == 0 {
				s.Add(probe)
			} else {
				s.Remove(probe)
			}
		}
	})
}

// BenchmarkStoreBuild measures Build alone at the size of the benchmark's
// G∞ at LUBM 4×15: 100,000 distinct random triples over 24 predicates and
// 30,000 dense IDs, handed over 2.4 times each on average (every triple
// once, the rest drawn again) and shuffled: the duplicate share of a
// saturation input that carries one rdf:type consequence per source
// triple. Each iteration builds from a fresh copy of the input, made
// outside the timer.
func BenchmarkStoreBuild(b *testing.B) {
	const distinct, ids = 100_000, 30_000
	rng := rand.New(rand.NewSource(1))
	seen := map[Triple]bool{}
	uniq := make([]Triple, 0, distinct)
	for len(uniq) < distinct {
		t := Triple{dict.ID(rng.Intn(ids) + 1), dict.ID(rng.Intn(24) + 1), dict.ID(rng.Intn(ids/3) + 1)}
		if !seen[t] {
			seen[t] = true
			uniq = append(uniq, t)
		}
	}
	in := append(make([]Triple, 0, distinct*12/5), uniq...)
	for len(in) < cap(in) {
		in = append(in, uniq[rng.Intn(distinct)])
	}
	rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	ts := make([]Triple, len(in))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(ts, in)
		b.StartTimer()
		if s := Build(ts); s.Len() != distinct {
			b.Fatalf("built %d triples, want %d", s.Len(), distinct)
		}
	}
}

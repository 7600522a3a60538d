// Benchmarks for the snapshot-isolated serving layer (PR "concurrent"); run
// with go test -run '^$' -bench 'StoreSnapshot|StoreClone|ServerReadThroughput' .
//
//	BenchmarkStoreSnapshot       — Snapshot() acquisition on the saturated
//	    depts=6 LUBM store (quiescent: the O(1) serving-path cost, and
//	    afterWrite: acquisition plus the writer-side copy-on-write detach a
//	    mutation between snapshots forces).
//	BenchmarkStoreCloneDepts6    — the deep Clone of the same store, the
//	    pre-snapshot way to get an isolated view; the acceptance bar is
//	    Snapshot ≥10x cheaper than Clone.
//	BenchmarkServerReadThroughput — steady-state prepared-query throughput
//	    through webreason.Server at 1/4/16 concurrent readers while a writer
//	    goroutine streams insert/delete batches the whole time.
package webreason_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/lubm"
	"repro/internal/reason"
	"repro/internal/store"
)

// depts6Store materialises the depts=6 LUBM closure once per benchmark
// binary — the store every snapshot/clone benchmark runs against.
var (
	depts6Once sync.Once
	depts6Mat  *reason.Materialization
	depts6KB   *core.KB
)

func depts6(b *testing.B) (*core.KB, *reason.Materialization) {
	b.Helper()
	depts6Once.Do(func() {
		cfg := lubm.SmallConfig()
		cfg.DeptsPerUniv = 6
		kb := core.NewKB()
		if _, err := kb.LoadGraph(lubm.GenerateWithOntology(cfg)); err != nil {
			panic(err)
		}
		depts6KB = kb
		depts6Mat = reason.Materialize(kb.Base(), kb.Rules())
	})
	return depts6KB, depts6Mat
}

// BenchmarkStoreSnapshot measures Snapshot acquisition on the depts=6 G∞
// store. quiescent is the cost the serving path pays per batch when nothing
// changed (cached snapshot); afterWrite interleaves one mutation per
// snapshot, so every iteration pays the copy-on-write detach — the honest
// worst case of one-triple batches.
func BenchmarkStoreSnapshot(b *testing.B) {
	kb, mat := depts6(b)
	st := mat.Store()
	probe := kb.Encode(lubm.InstanceUpdates(1)[0])
	b.Run("quiescent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if st.Snapshot() == nil {
				b.Fatal("nil snapshot")
			}
		}
	})
	b.Run("afterWrite", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				st.Add(probe)
			} else {
				st.Remove(probe)
			}
			if st.Snapshot() == nil {
				b.Fatal("nil snapshot")
			}
		}
		b.StopTimer()
		st.Remove(probe) // restore
	})
}

// BenchmarkStoreCloneDepts6 prices Clone on a saturated store: O(1), a
// second writable version over the store's current snapshot, whatever the
// store's size.
func BenchmarkStoreCloneDepts6(b *testing.B) {
	_, mat := depts6(b)
	st := mat.Store()
	b.ReportAllocs()
	var sink *store.Store
	for i := 0; i < b.N; i++ {
		sink = st.Clone()
	}
	_ = sink
}

// BenchmarkServerReadThroughput measures per-query latency of a prepared
// LUBM query through the Server under sustained writes, at 1, 4 and 16
// concurrent readers. The writer goroutine streams 16-triple insert batches
// (deleting earlier ones to keep the store near its initial size) for the
// whole measurement, so every read crosses a freshly swapped snapshot.
func BenchmarkServerReadThroughput(b *testing.B) {
	for _, readers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			cfg := lubm.SmallConfig()
			cfg.DeptsPerUniv = 6
			kb := core.NewKB()
			if _, err := kb.LoadGraph(lubm.GenerateWithOntology(cfg)); err != nil {
				b.Fatal(err)
			}
			srv := webreason.NewServer(core.NewSaturation(kb), webreason.ServerOptions{
				FlushEvery:    64,
				FlushInterval: 500 * time.Microsecond,
			})
			defer srv.Close()
			var q *webreason.Query
			for _, wq := range lubm.Queries() {
				if wq.Name == "Q5" {
					q = wq.Parse()
				}
			}
			pq, err := srv.Prepare(q)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pq.Answer(); err != nil {
				b.Fatal(err)
			}

			stop := make(chan struct{})
			var writerWG sync.WaitGroup
			writerWG.Add(1)
			go func() {
				defer writerWG.Done()
				ex := func(n string) webreason.Term { return webreason.NewIRI("http://load.example.org/" + n) }
				p := ex("p")
				gen := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					batch := make([]webreason.Triple, 0, 16)
					for i := 0; i < 16; i++ {
						batch = append(batch, webreason.T(ex(fmt.Sprintf("s%d-%d", gen, i)), p, ex(fmt.Sprintf("o%d-%d", gen, i))))
					}
					if err := srv.Insert(batch...); err != nil {
						return
					}
					if err := srv.Delete(batch...); err != nil {
						return
					}
					gen++
				}
			}()

			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/readers + 1
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := pq.Answer(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			close(stop)
			writerWG.Wait()
		})
	}
}

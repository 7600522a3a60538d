package webreason_test

import (
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	webreason "repro"
	"repro/internal/lubm"
)

// TestWriteHeapPlateaus is the bounded-write-memory gate: a durable Server
// under a balanced write stream — every drain inserts a batch and the next
// retracts it, over a fixed pool of batches, so neither G∞ nor the
// dictionary grows once the pool has been seen — must hold a flat live
// heap. Each drain is one write epoch, so every drain path-copies the trie
// nodes and leaves it touches; the versions it supersedes (and the snapshots
// that shared them) are garbage once the next view is published. The live
// heap after 4N drains may exceed the one after N by at most a quarter.
func TestWriteHeapPlateaus(t *testing.T) {
	const (
		n         = 300 // drains before the first reading; 4n before the second
		batchSize = 16
		batches   = 32
	)
	kb := webreason.NewKB()
	if _, err := kb.LoadGraph(webreason.LUBMOntology()); err != nil {
		t.Fatal(err)
	}
	if _, err := kb.LoadGraph(webreason.LUBMGenerate(1, 4, 1)); err != nil {
		t.Fatal(err)
	}
	strat := webreason.NewSaturationStrategy(kb)
	db, err := webreason.OpenDB(t.TempDir(), webreason.DBOptions{Sync: webreason.SyncNever, CheckpointBytes: 1 << 20, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Checkpoint(strat.DurableState()); err != nil {
		t.Fatal(err)
	}
	srv := webreason.NewServer(strat, webreason.ServerOptions{DB: db})
	defer srv.Close()

	pool := lubm.InstanceUpdates(batchSize * batches)
	drains := 0
	drain := func(until int) {
		t.Helper()
		for ; drains < until; drains++ {
			b := pool[drains/2%batches*batchSize:][:batchSize]
			write := srv.InsertDurable
			if drains%2 == 1 {
				write = srv.DeleteDurable
			}
			if err := write(b...); err != nil {
				t.Fatalf("drain %d: %v", drains, err)
			}
		}
	}
	// A reading is the least of three collections 20 ms apart: an
	// asynchronous checkpoint holds its image buffer for a few milliseconds,
	// and a leak is live at every one of them.
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	live := func() uint64 {
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			time.Sleep(20 * time.Millisecond)
			runtime.GC()
			metrics.Read(sample)
			least = min(least, sample[0].Value.Uint64())
		}
		return least
	}

	size := srv.Len()
	drain(n)
	first := live()
	drain(4 * n)
	second := live()
	if got := srv.Len(); got != size {
		t.Fatalf("balanced stream left |G∞| = %d, started at %d", got, size)
	}
	t.Logf("live heap after %d drains: %.1f MB; after %d: %.1f MB", n, float64(first)/(1<<20), 4*n, float64(second)/(1<<20))
	if 4*second > 5*first {
		t.Errorf("live heap grew from %d to %d bytes between drain %d and drain %d: more than 1.25×", first, second, n, 4*n)
	}
}

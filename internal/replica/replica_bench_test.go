// Replication cost model; run with
// go test -run '^$' -bench Replica ./internal/replica/
//
//	BenchmarkReplicaBootstrap   — time for a fresh follower to bootstrap from
//	                              a checkpoint and cover the primary's tip
//	BenchmarkReplicaSteadyLag   — per-record replication latency on a warm
//	                              follower (append on the primary → applied
//	                              on the follower), the steady-state lag
//	BenchmarkReplicaPromotion   — failover downtime: Promote on a caught-up
//	                              follower (final catch-up round, fencing,
//	                              reopen as writable DB)
package replica_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/rdf"
	"repro/internal/replica"
)

// benchPrimary builds a primary with n checkpointed triples plus a small
// live WAL tail.
func benchPrimary(b *testing.B, n int) *primary {
	b.Helper()
	p := newPrimary(b, persist.Options{CheckpointBytes: -1, CheckpointRecords: -1})
	const batch = 512
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		ts := make([]rdf.Triple, 0, hi-lo)
		for i := lo; i < hi; i++ {
			ts = append(ts, rt(i))
		}
		p.insert(ts...)
	}
	p.checkpoint()
	p.insert(rt(n))
	return p
}

func BenchmarkReplicaBootstrap(b *testing.B) {
	p := benchPrimary(b, 2000)
	defer p.db.Close()
	tip := p.db.TipPos()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := replica.Start(replica.Config{
			Dir:    b.TempDir(),
			Source: replica.NewFSFeeder(p.dir, nil),
			Poll:   50 * time.Microsecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.WaitApplied(ctx, tip); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		f.Stop()
		b.StartTimer()
	}
}

func BenchmarkReplicaSteadyLag(b *testing.B) {
	p := benchPrimary(b, 256)
	defer p.db.Close()
	f, err := replica.Start(replica.Config{
		Dir:    b.TempDir(),
		Source: replica.NewFSFeeder(p.dir, nil),
		Poll:   50 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Stop()
	ctx := context.Background()
	if err := f.WaitApplied(ctx, p.db.TipPos()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.db.Append(false, []rdf.Triple{rt(1_000_000 + i)}); err != nil {
			b.Fatal(err)
		}
		if err := f.WaitApplied(ctx, p.db.TipPos()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplicaPromotion(b *testing.B) {
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := benchPrimary(b, 512)
		f, err := replica.Start(replica.Config{
			Dir:    b.TempDir(),
			Source: replica.NewFSFeeder(p.dir, nil),
			Poll:   50 * time.Microsecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.WaitApplied(ctx, p.db.TipPos()); err != nil {
			b.Fatal(err)
		}
		p.db.Close()
		b.StartTimer()
		db, _, err := f.Promote(replica.PromoteOptions{CatchUp: true})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		db.Close()
		b.StartTimer()
	}
}

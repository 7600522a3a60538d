package webreason_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	webreason "repro"
	"repro/internal/faultfs"
	"repro/internal/persist"
)

// TestMutateMatrix drives the one write path through every combination of
// {insert, delete} × {plain, durable} × {Server, Session} under three
// conditions: a live context (the write is accepted and becomes visible), a
// context that expires against a full queue (admission control bounces the
// write with a typed OverloadedError, and the same write admits once the
// deadline is lifted), and a context that expires during the durability wait
// (the wait is abandoned, not the write). A slow WAL fsync keeps the writer
// busy wherever a condition needs the queue full or the acknowledgement late.
func TestMutateMatrix(t *testing.T) {
	slowSync := func() *faultfs.Schedule {
		return faultfs.NewSchedule().LatencyOn(faultfs.OpSync, "wal-", 150*time.Millisecond)
	}
	for _, scenario := range []string{"live", "overloaded", "abandoned"} {
		for _, del := range []bool{false, true} {
			for _, durable := range []bool{false, true} {
				for _, session := range []bool{false, true} {
					name := fmt.Sprintf("%s/delete=%v/durable=%v/session=%v", scenario, del, durable, session)
					t.Run(name, func(t *testing.T) {
						fsys := faultfs.New(nil)
						srvOpts := webreason.ServerOptions{FlushEvery: 1}
						if scenario == "overloaded" {
							srvOpts.MaxPending = 1
						}
						srv, db := newFaultedServer(t, t.TempDir(), fsys,
							persist.Options{Sync: persist.SyncAlways, CheckpointBytes: -1, CheckpointRecords: -1}, srvOpts)
						defer db.Close()
						defer srv.Close()
						defer fsys.Clear()
						sess := srv.Session()
						mutate, ask := srv.Mutate, srv.Ask
						if session {
							mutate, ask = sess.Mutate, sess.Ask
						}

						// The subject of a delete is asserted first, so a
						// retraction that took effect is observable.
						subject := degTriple(1)
						seed := func() {
							if err := srv.Insert(subject); err != nil {
								t.Fatal(err)
							}
						}
						m := webreason.Mutation{Delete: del, Durable: durable, Triples: []webreason.Triple{subject}}
						if !del {
							m.Triples = []webreason.Triple{degTriple(2)}
						}
						timeout := 20 * time.Millisecond
						if scenario == "live" {
							timeout = 10 * time.Second
						}
						if scenario == "overloaded" {
							// Once the writer has taken the seeding insert into
							// the slow fsync, the next write fills the queue
							// behind it.
							fsys.SetSchedule(slowSync())
							syncs := fsys.OpCount(faultfs.OpSync)
							seed()
							for fsys.OpCount(faultfs.OpSync) == syncs {
								time.Sleep(time.Millisecond)
							}
							if err := srv.Insert(degTriple(3)); err != nil {
								t.Fatal(err)
							}
						} else {
							// The seeding insert gets a WAL record of its own.
							seed()
							if err := srv.Flush(); err != nil {
								t.Fatal(err)
							}
							if scenario == "abandoned" {
								fsys.SetSchedule(slowSync())
							}
						}
						ctx, cancel := context.WithTimeout(context.Background(), timeout)
						defer cancel()
						err := mutate(ctx, m)
						fsys.Clear() // only the fsync in flight stays slow

						switch {
						case scenario == "overloaded":
							var oe *webreason.OverloadedError
							if !errors.Is(err, webreason.ErrOverloaded) || !errors.Is(err, context.DeadlineExceeded) ||
								!errors.As(err, &oe) || oe.Pending < 1 || !strings.Contains(err.Error(), "overloaded") {
								t.Fatalf("admission past the deadline: got %v, want an OverloadedError carrying the depth and the context cause", err)
							}
							// Without a deadline the same write admits once the
							// writer catches up.
							if err := mutate(context.Background(), m); err != nil {
								t.Fatalf("unbounded retry: %v", err)
							}
						case scenario == "abandoned" && durable:
							if !errors.Is(err, context.DeadlineExceeded) {
								t.Fatalf("cancelled durability wait: got %v, want the context error", err)
							}
						case err != nil:
							t.Fatalf("Mutate: %v", err)
						case durable && srv.Health().WALRecords < 2:
							// Acknowledged durable ⇒ logged, after the seed.
							t.Fatalf("durable ack with %d WAL records", srv.Health().WALRecords)
						}

						// However the call ended, an accepted write takes
						// effect: a session observes it in its very next read,
						// an anonymous reader after a Flush.
						if !session {
							if err := srv.Flush(); err != nil {
								t.Fatal(err)
							}
						}
						if ok, err := ask(askFor(m.Triples[0])); err != nil || ok == del {
							t.Fatalf("after Mutate: Ask = %v, %v; want %v", ok, err, !del)
						}
					})
				}
			}
		}
	}
}

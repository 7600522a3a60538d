//go:build !race

// Under the race detector sync.Pool drops a share of its Puts, so a pooled
// prepared instance is not always there to reuse and executions compile
// afresh; the gate judges the normal build.

package webreason_test

import (
	"testing"
	"time"

	webreason "repro"
)

// TestPreparedAnswerAllocs is the allocation gate on the hottest read path:
// a steady-state ServerPrepared.Answer on saturation allocates the result
// (header, row table, row arena) and nothing else — at most 3 allocs/op —
// and turning metrics on adds none: the instrumented path pays the latency
// histogram, the pool-hit counter and the slow log's threshold check without
// allocating.
func TestPreparedAnswerAllocs(t *testing.T) {
	f := getFixture(t)
	for _, mode := range []struct {
		name string
		opts webreason.ServerOptions
	}{
		{"metrics=off", webreason.ServerOptions{}},
		// A 1s threshold: every execution pays the slow-log check, none is
		// slow enough to build a trace — a healthy production steady state.
		{"metrics=on", webreason.ServerOptions{Obs: webreason.NewMetricsRegistry(), SlowLog: webreason.NewSlowLog(256, time.Second)}},
	} {
		srv := webreason.NewServer(f.sat, mode.opts)
		defer srv.Close()
		for _, qn := range []string{"Q1", "Q5"} {
			pq, err := srv.Prepare(f.qs[qn])
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, err := pq.Answer(); err != nil {
					t.Fatal(err)
				}
			}
			run() // grow the plan's scratch buffers, fill the pool
			if got := testing.AllocsPerRun(200, run); got > 3 {
				t.Errorf("%s/%s: %v allocs/op, want at most 3", mode.name, qn, got)
			}
		}
	}
}

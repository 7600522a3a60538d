// BenchmarkObsPreparedQuery proves the observability layer's overhead
// budget on the hottest read path: the instrumented server prepared query
// (metrics=on pays the latency histogram, pool hit counter and the slow
// log's lock-free threshold check on every execution) must stay within a
// few percent ns/op of the uninstrumented server and add zero allocs/op on
// top of the 3-allocs/op steady state (TestPreparedAnswerAllocs gates the
// allocations in tier-1; this benchmark shows the time).
package webreason_test

import (
	"testing"
	"time"

	webreason "repro"
)

func BenchmarkObsPreparedQuery(b *testing.B) {
	f := getFixture(b)
	for _, mode := range []struct {
		name string
		obs  bool
	}{
		{"metrics=off", false},
		{"metrics=on", true},
	} {
		var opts webreason.ServerOptions
		if mode.obs {
			opts.Obs = webreason.NewMetricsRegistry()
			// A 1s threshold means every execution pays the Note check (the
			// real hot-path cost) but none is slow enough to build a trace,
			// matching a healthy production steady state.
			opts.SlowLog = webreason.NewSlowLog(256, time.Second)
		}
		srv := webreason.NewServer(f.sat, opts)
		for _, qn := range []string{"Q1", "Q5"} {
			q := f.qs[qn]
			b.Run(mode.name+"/"+qn, func(b *testing.B) {
				pq, err := srv.Prepare(q)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := pq.Answer(); err != nil { // warm scratch + pool
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pq.Answer(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

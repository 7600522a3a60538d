package obs

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIdxExactSmall(t *testing.T) {
	for v := int64(0); v < 4; v++ {
		if got := bucketIdx(v); got != int(v) {
			t.Fatalf("bucketIdx(%d) = %d, want %d", v, got, v)
		}
		if got := bucketUpper(int(v)); got != v {
			t.Fatalf("bucketUpper(%d) = %d, want %d", v, got, v)
		}
	}
	if got := bucketIdx(-5); got != 0 {
		t.Fatalf("bucketIdx(-5) = %d, want 0", got)
	}
}

// Every value must land in a bucket whose upper bound is >= the value and
// whose relative width is bounded (<= 25% of the value for v >= 4).
func TestBucketBoundedError(t *testing.T) {
	vals := []int64{4, 5, 6, 7, 8, 9, 15, 16, 17, 100, 1000, 12345,
		1 << 20, 1<<20 + 1, 1<<40 - 1, 1 << 40, math.MaxInt64}
	for _, v := range vals {
		idx := bucketIdx(v)
		up := bucketUpper(idx)
		if up < v {
			t.Fatalf("v=%d: bucketUpper(%d)=%d < v", v, idx, up)
		}
		var lo int64
		if idx > 0 {
			lo = bucketUpper(idx-1) + 1
		}
		if lo > v {
			t.Fatalf("v=%d landed in bucket %d with lower bound %d", v, idx, lo)
		}
		width := up - lo + 1
		if float64(width) > 0.25*float64(v)+1 {
			t.Fatalf("v=%d: bucket [%d,%d] width %d exceeds 25%% relative error", v, lo, up, width)
		}
	}
}

// Bucket boundaries must tile the int64 range with no gaps or overlaps.
func TestBucketsContiguous(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < histBuckets; i++ {
		up := bucketUpper(i)
		if up <= prev {
			t.Fatalf("bucket %d upper %d <= previous %d", i, up, prev)
		}
		if bucketIdx(prev+1) != i {
			t.Fatalf("bucketIdx(%d) = %d, want %d", prev+1, bucketIdx(prev+1), i)
		}
		if bucketIdx(up) != i {
			t.Fatalf("bucketIdx(%d) = %d, want %d", up, bucketIdx(up), i)
		}
		prev = up
	}
	if prev != math.MaxInt64 {
		t.Fatalf("last bucket upper = %d, want MaxInt64", prev)
	}
}

func TestHistogramObserveQuantile(t *testing.T) {
	h := &Histogram{scale: 1}
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 500500 {
		t.Fatalf("sum = %d", h.Sum())
	}
	p50 := h.Quantile(0.5)
	if p50 < 500 || p50 > 640 {
		t.Fatalf("p50 = %d, want within a bucket of 500", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 990 || p99 > 1280 {
		t.Fatalf("p99 = %d, want within a bucket of 990", p99)
	}
}

func TestNilReceiversNoop(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var l *SlowLog
	var r *Registry
	c.Add(1)
	c.Inc()
	g.Set(5)
	g.Add(-1)
	h.Observe(7)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil primitives should read zero")
	}
	if l.Note(time.Hour) {
		t.Fatal("nil slowlog should never ask for a record")
	}
	l.Record(QueryTrace{})
	l.SetThreshold(time.Second)
	if l.Snapshot() != nil || l.Seen() != 0 {
		t.Fatal("nil slowlog should read empty")
	}
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", 1) != nil {
		t.Fatal("nil registry should hand out nil metrics")
	}
	r.Func("x", "", func() float64 { return 0 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryDedupAndConflict(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs_total", "requests", "strategy", "sat")
	b := r.Counter("reqs_total", "requests", "strategy", "sat")
	if a != b {
		t.Fatal("same name+labels should return the same counter")
	}
	c := r.Counter("reqs_total", "requests", "strategy", "ref")
	if a == c {
		t.Fatal("different labels should get a distinct series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type conflict should panic")
		}
	}()
	r.Gauge("reqs_total", "boom", "strategy", "sat")
}

func TestRegistryFuncReplacement(t *testing.T) {
	r := NewRegistry()
	r.Func("lag", "", func() float64 { return 1 })
	r.Func("lag", "", func() float64 { return 2 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "lag 2\n") {
		t.Fatalf("func registration should replace; got:\n%s", out)
	}
	if strings.Contains(out, "lag 1\n") {
		t.Fatalf("stale func survived:\n%s", out)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last family").Add(3)
	r.Gauge("aa_depth", "queue depth").Set(7)
	h := r.Histogram("req_seconds", "latency", 1e-9, "strategy", "sat")
	h.Observe(1500) // 1.5us -> bucket upper 1535ns
	h.Observe(2_000_000_000)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE aa_depth gauge\naa_depth 7\n",
		"# TYPE zz_total counter\nzz_total 3\n",
		"# TYPE req_seconds histogram\n",
		`req_seconds_bucket{strategy="sat",le="+Inf"} 2`,
		`req_seconds_count{strategy="sat"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Families must be sorted: aa before req before zz.
	if strings.Index(out, "aa_depth") > strings.Index(out, "req_seconds") ||
		strings.Index(out, "req_seconds") > strings.Index(out, "zz_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
	// Cumulative buckets: the +Inf count equals total count.
	if !strings.Contains(out, `le="+Inf"} 2`) {
		t.Fatalf("+Inf bucket wrong:\n%s", out)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{scale: 1}
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < per; i++ {
				h.Observe(seed*1000 + i)
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("lost samples: count = %d, want %d", h.Count(), workers*per)
	}
}

func TestSlowLogRingAndThreshold(t *testing.T) {
	l := NewSlowLog(4, 10*time.Millisecond)
	if l.Note(9 * time.Millisecond) {
		t.Fatal("below threshold should not record")
	}
	if !l.Note(10 * time.Millisecond) {
		t.Fatal("at threshold should record")
	}
	for i := 0; i < 6; i++ {
		l.Record(QueryTrace{Rows: i, Duration: time.Duration(i) * time.Second})
	}
	got := l.Snapshot()
	if len(got) != 4 {
		t.Fatalf("ring should hold 4, got %d", len(got))
	}
	for i, tr := range got {
		if tr.Rows != i+2 {
			t.Fatalf("record %d has Rows=%d, want %d (oldest-first, oldest two evicted)", i, tr.Rows, i+2)
		}
	}
	if l.Seen() != 6 {
		t.Fatalf("seen = %d, want 6", l.Seen())
	}
	l.SetThreshold(time.Hour)
	if l.Note(time.Minute) {
		t.Fatal("threshold update not applied")
	}
}

// The acceptance gate: Observe on the hot path must not allocate.
func TestObserveZeroAlloc(t *testing.T) {
	h := &Histogram{scale: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
	})
	if allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %v per op, want 0", allocs)
	}
	c := &Counter{}
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc() }); allocs != 0 {
		t.Fatalf("Counter.Inc allocates %v per op, want 0", allocs)
	}
	l := NewSlowLog(4, time.Hour)
	if allocs := testing.AllocsPerRun(1000, func() { l.Note(time.Millisecond) }); allocs != 0 {
		t.Fatalf("SlowLog.Note allocates %v per op, want 0", allocs)
	}
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	h := &Histogram{scale: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkObsHistogramObserveParallel(b *testing.B) {
	h := &Histogram{scale: 1}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(0)
		for pb.Next() {
			v++
			h.Observe(v)
		}
	})
}

// TestRegisterRuntime: the collector family reads real values — after a
// forced collection there is a live heap, a cycle count and a CPU share in
// [0,1] — and a nil registry is a no-op like every other registration.
func TestRegisterRuntime(t *testing.T) {
	RegisterRuntime(nil)
	r := NewRegistry()
	RegisterRuntime(r)
	runtime.GC()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sample := func(name string) float64 {
		for _, line := range strings.Split(b.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("%s missing from:\n%s", name, b.String())
		return 0
	}
	if v := sample("go_gc_heap_live_bytes"); v <= 0 {
		t.Errorf("go_gc_heap_live_bytes = %v after a collection", v)
	}
	if v := sample("go_gc_cycles_total"); v < 1 {
		t.Errorf("go_gc_cycles_total = %v after a collection", v)
	}
	if v := sample("go_gc_cpu_fraction"); v < 0 || v > 1 {
		t.Errorf("go_gc_cpu_fraction = %v, want a share", v)
	}
}

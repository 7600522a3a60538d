package obs

import "runtime/metrics"

// RegisterRuntime registers the Go collector's family, read from
// runtime/metrics at exposition time: what the live heap was after the last
// collection, how many collections have run, and the share of the process's
// CPU time they have taken. A write path that copies faster than the
// collector frees shows here — inside the window, where a heap reading taken
// before or after it does not.
func RegisterRuntime(reg *Registry) {
	read := func(name string) float64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		switch s[0].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[0].Value.Uint64())
		case metrics.KindFloat64:
			return s[0].Value.Float64()
		}
		return 0 // a name this toolchain does not export
	}
	reg.Func("go_gc_heap_live_bytes",
		"Heap memory the last completed collection found live.",
		func() float64 { return read("/gc/heap/live:bytes") })
	reg.CounterFunc("go_gc_cycles_total",
		"Completed garbage-collection cycles.",
		func() float64 { return read("/gc/cycles/total:gc-cycles") })
	reg.Func("go_gc_cpu_fraction",
		"Share of the process's available CPU time spent in the collector since start (the runtime's estimate, updated per cycle).",
		func() float64 {
			total := read("/cpu/classes/total:cpu-seconds")
			if total == 0 {
				return 0
			}
			return read("/cpu/classes/gc/total:cpu-seconds") / total
		})
}

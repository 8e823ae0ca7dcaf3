package obsrv

import "runtime/metrics"

// GoRuntimeMetrics names the gauges registerGoRuntime adds to every
// enabled Observer's registry.
var GoRuntimeMetrics = []string{
	"go_heap_live_bytes", "go_gc_cycles_total", "go_gc_pause_seconds_total", "go_goroutines",
}

// registerGoRuntime adds gauges over the Go runtime's own metrics
// (runtime/metrics). Like every gauge they are read only at scrape time,
// so they cost a request nothing.
func registerGoRuntime(reg *Registry) {
	reg.Gauge("go_heap_live_bytes", "Heap bytes held by objects the last GC marked live.",
		runtimeGauge("/gc/heap/live:bytes"))
	reg.Gauge("go_gc_cycles_total", "Completed GC cycles.",
		runtimeGauge("/gc/cycles/total:gc-cycles"))
	// The runtime reports pause time as CPU-seconds, GOMAXPROCS times the
	// wall-clock pause; dividing recovers the pause itself.
	reg.Gauge("go_gc_pause_seconds_total", "Wall-clock time the application spent paused by the GC.",
		func() float64 {
			return readRuntime("/cpu/classes/gc/pause:cpu-seconds") /
				max(1, readRuntime("/sched/gomaxprocs:threads"))
		})
	reg.Gauge("go_goroutines", "Live goroutines.",
		runtimeGauge("/sched/goroutines:goroutines"))
}

func runtimeGauge(name string) func() float64 {
	return func() float64 { return readRuntime(name) }
}

// readRuntime reads one scalar runtime metric; a metric this Go release
// does not support reads as 0.
func readRuntime(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch v := s[0].Value; v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

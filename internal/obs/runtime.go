package obs

import "runtime"

// RuntimeCollector samples Go runtime health at render time: live
// goroutines, heap bytes, cumulative GC pause time and GC cycles. One
// ReadMemStats per exposition (it stops the world briefly, so it runs
// only when /metrics is scraped, never on a hot path).
type RuntimeCollector struct {
	// Prefix namespaces the families (e.g. "valleyd").
	Prefix string
}

// Collect implements Collector.
func (rc RuntimeCollector) Collect(b []byte) []byte {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	family := func(name, typ, help string, v float64) {
		name = rc.Prefix + name
		b = sample(header(b, name, typ, help), name, "", v)
	}
	family("_goroutines", "gauge", "Live goroutines.", float64(runtime.NumGoroutine()))
	family("_heap_alloc_bytes", "gauge", "Heap bytes allocated and in use.", float64(ms.HeapAlloc))
	family("_heap_sys_bytes", "gauge", "Heap bytes obtained from the OS.", float64(ms.HeapSys))
	family("_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause time.", float64(ms.PauseTotalNs)/1e9)
	family("_gc_cycles_total", "counter", "Completed GC cycles.", float64(ms.NumGC))
	return b
}

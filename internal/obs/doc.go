// Package obs is valleyd's stdlib-only observability core: structured
// logging helpers over log/slog, lightweight span tracing, and one
// Prometheus text-exposition Registry over counters, sampled gauges,
// fixed-bucket latency histograms and runtime gauges. Every service
// layer — HTTP handlers, the worker pool, the sweep dispatcher, the
// caches and the streaming profile pipeline — instruments through this
// package, so the daemon has one consistent story for "what happened,
// when, and how long did it take".
//
// # Overhead budget
//
// Instruments are designed to be safe on hot paths:
//
//   - Counter.Add is one atomic add and performs zero allocations;
//     a CounterVec resolves its child (mutex + label rendering) once
//     in With, so hot paths hold the child *Counter.
//   - Histogram.Observe is lock-free (one atomic add per bucket walk
//     plus a CAS for the sum) and performs zero allocations; the bucket
//     walk is a linear scan over at most a few dozen boundaries.
//   - GaugeFunc, CounterFunc and GaugeVecFunc cost nothing until a
//     scrape calls their sampling func.
//   - Span recording takes one short mutex hold per start/end and
//     amortizes storage through a ring buffer; a trace never grows past
//     its configured span capacity (older spans are overwritten and
//     counted as dropped).
//   - Loggers are plain *slog.Logger values; disabled levels cost one
//     atomic load per call site, the stdlib contract.
//
// The simulation engine itself (internal/sim) is deliberately not
// instrumented per event: its zero-allocation steady-state guarantee is
// CI-enforced, and per-event timestamps would swamp the simulated work.
// Engine-level visibility comes from coarse per-run stage taps on
// gpusim.Runner instead.
//
// # Bucket layout
//
// Histograms use fixed log-scale buckets chosen at construction
// (ExpBuckets); the default latency layout is DefaultLatencyBuckets:
// 12 buckets growing ×4 from 1 µs, spanning 1 µs – ~4.2 s, which covers
// everything from a per-batch decode step to a full-scale sweep cell
// with roughly half-decade resolution. Exposition follows the
// Prometheus text format: cumulative _bucket series ending in le="+Inf",
// plus _sum and _count.
//
// # Span lifecycle
//
// A Trace is created per job with NewTrace and carries a ring buffer of
// spans. Start opens a span (optionally under a parent and with a fixed
// start time, e.g. the HTTP accept instant); the returned SpanRef's End
// closes it. Spans may start and end on different goroutines from the
// trace's creator — the trace's mutex orders all mutations. Tree
// renders the completed (or in-progress) spans as a parent→child forest
// for the /v1/jobs/{id}/trace endpoint; spans whose parent was
// overwritten by the ring re-root at the top level rather than
// disappearing.
package obs

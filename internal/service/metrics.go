package service

import (
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"valleymap/internal/obs"
)

// Metrics is valleyd's /metrics surface: every family is one
// registration on an obs.Registry, which renders the plain-text
// Prometheus exposition. Counters and histograms are lock-free and
// allocation-free on their hot paths; gauges are sampled at render time
// from the owning structures, which register them as they are built
// (see addGauge), so a gauge appears only when its source exists.
type Metrics struct {
	reg *obs.Registry

	profileHits, profileMisses *obs.Counter

	jobsEnqueued, jobsDone, jobsFailed *obs.Counter
	// jobsCanceled counts jobs terminated by explicit cancellation,
	// client disconnect or an expired deadline; jobsShed counts sweeps
	// rejected up front by the cost-aware admission gate; degradedSweeps
	// counts fully-cached sweeps served inline past a saturated pool.
	jobsCanceled, jobsShed, degradedSweeps *obs.Counter

	cellsSimulated      *obs.Counter
	simHits, simMisses  *obs.Counter
	sweepMicros         atomic.Int64 // rendered as float seconds
	streamEventsDropped *obs.Counter
	workerPanics        *obs.Counter

	// Cluster dispatch accounting (coordinator side). The peer label is
	// the configured peer URL, a closed set, so the label space is
	// bounded.
	clusterDispatched *obs.CounterVec
	clusterSteals     *obs.Counter
	clusterLocalCells *obs.Counter

	// Tiered sim-cache accounting: hits split by serving tier, and the
	// spill tier's write-behind/janitor activity.
	tierMem, tierDisk                                         *obs.Counter
	spillWrites, spillWriteDrops, spillEvictions, spillErrors *obs.Counter

	// Latency histograms. stageCSV/Binary/Native are the pre-resolved
	// per-format children of stageDur, held so the per-batch streaming
	// hot path never touches the vec's mutex.
	httpDur     *obs.HistogramVec
	queueWait   *obs.Histogram
	cellSeconds *obs.Histogram
	stageDur    *obs.HistogramVec

	stageCSV    stageSet
	stageBinary stageSet
	stageNative stageSet
}

// stageSet holds one ingest format's pre-resolved streaming-stage
// histograms (format label values: csv, binary — VTRC decode or mmap —
// and native for in-process trace generators/materialized apps).
type stageSet struct {
	decode, coalesce, accumulate *obs.Histogram
}

// NewMetrics returns the registry with every counter and histogram
// family registered. The service registers the sampled gauges as it
// constructs its pool, caches and cluster client.
func NewMetrics() *Metrics {
	m := &Metrics{reg: obs.NewRegistry()}
	counter := func(name, help string) *obs.Counter {
		c := obs.NewCounter(name, help)
		m.reg.Register(c)
		return c
	}
	m.profileHits = counter("valleyd_profile_cache_hits_total", "Profile-cache hits (including joins on in-flight computations).")
	m.profileMisses = counter("valleyd_profile_cache_misses_total", "Profile-cache misses.")
	m.jobsEnqueued = counter("valleyd_jobs_enqueued_total", "Simulation jobs accepted.")
	m.jobsDone = counter("valleyd_jobs_done_total", "Simulation jobs completed successfully.")
	m.jobsFailed = counter("valleyd_jobs_failed_total", "Simulation jobs that ended in error.")
	m.jobsCanceled = counter("valleyd_jobs_canceled_total", "Simulation jobs terminated by cancellation, client disconnect or deadline expiry.")
	m.jobsShed = counter("valleyd_jobs_shed_total", "Sweeps rejected up front by cost-aware admission control.")
	m.degradedSweeps = counter("valleyd_sweeps_degraded_total", "Fully-cached sweeps served inline because the worker pool was saturated.")
	m.cellsSimulated = counter("valleyd_sim_cells_total", "Individual workload x scheme simulations executed (cache hits excluded).")
	m.simHits = counter("valleyd_sim_cells_cache_hits_total", "Sweep cells served from the simulation-result cache (including joins on in-flight cells).")
	m.simMisses = counter("valleyd_sim_cells_cache_misses_total", "Sweep cells that had to simulate.")
	m.reg.Register(obs.CounterFunc{Name: "valleyd_sweep_seconds_total", Help: "Wall time spent executing simulation sweeps.",
		Fn: func() float64 { return float64(m.sweepMicros.Load()) / 1e6 }})
	m.streamEventsDropped = counter("valleyd_stream_events_dropped_total", "Slow-consumer wakeup drops on job event streams (lag accounting; no events are lost).")
	m.workerPanics = counter("valleyd_worker_panics_total", "Panics recovered in sweep cells and pool workers.")

	m.clusterDispatched = obs.NewCounterVec("valleyd_cluster_cells_dispatched_total", "Sweep cells dispatched to each peer worker.", "peer")
	m.reg.Register(m.clusterDispatched)
	m.clusterSteals = counter("valleyd_cluster_steals_total", "Cells re-dispatched after a failed attempt on a slow or dead peer.")
	m.clusterLocalCells = counter("valleyd_cluster_local_cells_total", "Cells a coordinator executed locally because no healthy peer could take them.")

	tierHits := obs.NewCounterVec("valleyd_cache_tier_hits_total", "Simulation-cache hits by serving tier (mem: resident or in-flight join; disk: promoted from the spill store).", "tier")
	m.reg.Register(tierHits)
	m.tierMem, m.tierDisk = tierHits.With("mem"), tierHits.With("disk")
	m.spillWrites = counter("valleyd_cache_spill_writes_total", "Spill entry files landed by the write-behind goroutine.")
	m.spillWriteDrops = counter("valleyd_cache_spill_write_drops_total", "Pending spill writes discarded on write-behind queue overflow (lost warmth, never correctness).")
	m.spillEvictions = counter("valleyd_cache_spill_evictions_total", "Spill entries evicted by the byte-budget janitor (lowest cost-per-byte first).")
	m.spillErrors = counter("valleyd_cache_spill_errors_total", "Spill damage events (failed writes, corrupt or unreadable entries) degraded to cache misses.")

	m.httpDur = obs.NewHistogramVec("valleyd_http_request_duration_seconds",
		"HTTP request wall time by path and status code.", []string{"path", "code"}, nil)
	m.queueWait = obs.NewHistogram("valleyd_queue_wait_seconds",
		"Time sweep cells spend queued before a pool worker picks them up.", nil)
	m.cellSeconds = obs.NewHistogram("valleyd_cell_simulation_seconds",
		"Per-cell wall time inside a sweep (cached cells land in the lowest buckets).", nil)
	m.stageDur = obs.NewHistogramVec("valleyd_stream_stage_seconds",
		"Exclusive per-batch wall time of each streaming-pipeline stage, by trace container format.", []string{"stage", "format"}, nil)
	stages := func(format string) stageSet {
		return stageSet{
			decode:     m.stageDur.With("decode", format),
			coalesce:   m.stageDur.With("coalesce", format),
			accumulate: m.stageDur.With("accumulate", format),
		}
	}
	m.stageCSV = stages("csv")
	m.stageBinary = stages("binary")
	m.stageNative = stages("native")
	m.reg.Register(m.httpDur)
	m.reg.Register(m.queueWait)
	m.reg.Register(m.cellSeconds)
	m.reg.Register(m.stageDur)
	m.reg.Register(obs.RuntimeCollector{Prefix: "valleyd"})
	return m
}

// addGauge registers a gauge family sampled from fn at render time.
func addGauge[N int | int64 | float64](m *Metrics, name, help string, fn func() N) {
	m.reg.Register(obs.GaugeFunc{Name: name, Help: help, Fn: func() float64 { return float64(fn()) }})
}

// knownPaths is the closed set of per-path label values: the routes
// Handler registers. Anything else — embedders calling
// ObserveRequestLatency with raw URLs, future unrouted paths —
// collapses to "other", so the latency vec stays bounded however
// hostile the traffic.
var knownPaths = map[string]struct{}{
	"/v1/profile":     {},
	"/v1/advise":      {},
	"/v1/simulate":    {},
	"/v1/cells":       {},
	"/v1/jobs":        {},
	"/v1/jobs/events": {},
	"/v1/jobs/trace":  {},
	"/healthz":        {},
	"/metrics":        {},
}

func capPath(path string) string {
	if _, ok := knownPaths[path]; ok {
		return path
	}
	return "other"
}

// ObserveRequestLatency records one completed request's wall time in
// the per-path/status latency histogram; its _count series is the
// per-path request count.
func (m *Metrics) ObserveRequestLatency(path string, code int, d time.Duration) {
	m.httpDur.With(capPath(path), strconv.Itoa(code)).ObserveDuration(d)
}

// WriteTo renders every registered family in Prometheus text format.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(m.reg.Collect(nil))
	return int64(n), err
}

package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"valleymap/internal/obs"
)

// Metrics aggregates service-level counters and gauges and renders them
// in the plain-text Prometheus exposition format on /metrics. Counters
// are lock-free; the per-path request table takes a small mutex because
// the label set is bounded but still keyed by status code. Latency
// distributions live in obs histograms (lock-free, zero-alloc Observe)
// registered on reg and rendered after the hand-written families.
type Metrics struct {
	mu       sync.Mutex
	requests map[requestKey]*int64

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	simCacheHits   atomic.Int64
	simCacheMisses atomic.Int64

	jobsEnqueued atomic.Int64
	jobsDone     atomic.Int64
	jobsFailed   atomic.Int64
	// jobsCanceled counts jobs terminated by explicit cancellation,
	// client disconnect or an expired deadline; jobsShed counts sweeps
	// rejected up front by the cost-aware admission gate; degradedSweeps
	// counts fully-cached sweeps served inline past a saturated pool.
	jobsCanceled   atomic.Int64
	jobsShed       atomic.Int64
	degradedSweeps atomic.Int64

	cellsSimulated atomic.Int64
	// sweepMicros accumulates total sweep wall time in microseconds
	// (atomically; rendered as float seconds).
	sweepMicros atomic.Int64

	// streamEventsDropped counts slow-consumer wakeup drops on job
	// event streams (the bounded-buffer lag accounting; no event is
	// lost, the consumer just fell behind the live tail).
	streamEventsDropped atomic.Int64

	// workerPanics counts panics recovered in sweep cells and the
	// worker-pool backstop — work that would have killed a worker
	// goroutine before the recovery wrappers existed.
	workerPanics atomic.Int64

	// Cluster dispatch accounting (coordinator side). clusterDispatched
	// counts cells sent to each peer (keyed by the configured peer URL,
	// a closed set, so the label space is bounded); clusterSteals counts
	// cells re-dispatched after a failed attempt on another peer;
	// clusterLocalCells counts cells a coordinator fell back to
	// executing locally. peerUp, when wired, samples the cluster
	// client's health table at render time.
	clusterMu         sync.Mutex
	clusterDispatched map[string]*int64
	clusterSteals     atomic.Int64
	clusterLocalCells atomic.Int64
	peerUp            func() map[string]bool

	// Tiered sim-cache accounting: hits split by serving tier, and the
	// spill tier's write-behind/janitor activity. spillErrors counts
	// damage events (failed writes, corrupt or unreadable entries) that
	// degraded to a miss.
	tierHitsMem     atomic.Int64
	tierHitsDisk    atomic.Int64
	spillWrites     atomic.Int64
	spillWriteDrops atomic.Int64
	spillEvictions  atomic.Int64
	spillErrors     atomic.Int64

	// Gauges are sampled at render time from the owning structures.
	queueDepth   func() int
	workersBusy  func() int
	workers      int
	cacheLen     func() int
	simCacheLen  func() int
	spillEntries func() int
	spillBytes   func() int64

	// Latency histograms. stageCSV/Binary/Native are the pre-resolved
	// per-format children of stageDur, held so the per-batch streaming
	// hot path never touches the vec's mutex.
	reg         *obs.Registry
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

// NewMetrics returns an empty metrics registry. The service wires the
// gauge sampling funcs when it constructs its pool and cache.
func NewMetrics() *Metrics {
	m := &Metrics{requests: map[requestKey]*int64{}}
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
	m.reg = obs.NewRegistry()
	m.reg.Register(m.httpDur)
	m.reg.Register(m.queueWait)
	m.reg.Register(m.cellSeconds)
	m.reg.Register(m.stageDur)
	m.reg.Register(obs.RuntimeCollector{Prefix: "valleyd"})
	return m
}

type requestKey struct {
	path string
	code int
}

// knownPaths is the closed set of per-path label values: the routes
// Handler registers. Anything else — embedders calling ObserveRequest
// with raw URLs, future unrouted paths — collapses to "other", so the
// request table and the latency vec stay bounded however hostile the
// traffic.
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

// ObserveRequest counts one completed HTTP request.
func (m *Metrics) ObserveRequest(path string, code int) {
	path = capPath(path)
	m.mu.Lock()
	c, ok := m.requests[requestKey{path, code}]
	if !ok {
		c = new(int64)
		m.requests[requestKey{path, code}] = c
	}
	m.mu.Unlock()
	atomic.AddInt64(c, 1)
}

// ObserveRequestLatency records one request's wall time in the
// per-path/status latency histogram, with the same path cap as
// ObserveRequest.
func (m *Metrics) ObserveRequestLatency(path string, code int, d time.Duration) {
	m.httpDur.With(capPath(path), strconv.Itoa(code)).ObserveDuration(d)
}

// WorkerPanic counts one recovered worker panic (a sweep cell or pool
// task that panicked instead of returning).
func (m *Metrics) WorkerPanic() { m.workerPanics.Add(1) }

// ClusterDispatched counts n cells dispatched to peer.
func (m *Metrics) ClusterDispatched(peer string, n int) {
	m.clusterMu.Lock()
	if m.clusterDispatched == nil {
		m.clusterDispatched = map[string]*int64{}
	}
	c, ok := m.clusterDispatched[peer]
	if !ok {
		c = new(int64)
		m.clusterDispatched[peer] = c
	}
	m.clusterMu.Unlock()
	atomic.AddInt64(c, int64(n))
}

// ClusterSteal counts one cell re-dispatched after a failed attempt on
// another peer (stolen from a slow or dead worker).
func (m *Metrics) ClusterSteal() { m.clusterSteals.Add(1) }

// ClusterLocalCell counts one cell a coordinator executed locally
// because no healthy peer could take it.
func (m *Metrics) ClusterLocalCell() { m.clusterLocalCells.Add(1) }

// ClusterDispatches returns a copy of the per-peer dispatched-cell
// counts.
func (m *Metrics) ClusterDispatches() map[string]int64 {
	m.clusterMu.Lock()
	defer m.clusterMu.Unlock()
	out := make(map[string]int64, len(m.clusterDispatched))
	for p, c := range m.clusterDispatched {
		out[p] = atomic.LoadInt64(c)
	}
	return out
}

// ClusterSteals returns total cells stolen from slow or dead peers.
func (m *Metrics) ClusterSteals() int64 { return m.clusterSteals.Load() }

// ClusterLocalCells returns total cells a coordinator ran locally as a
// cluster fallback.
func (m *Metrics) ClusterLocalCells() int64 { return m.clusterLocalCells.Load() }

// WorkerPanics returns the total recovered worker panics.
func (m *Metrics) WorkerPanics() int64 { return m.workerPanics.Load() }

// CacheHit / CacheMiss count profile-cache outcomes.
func (m *Metrics) CacheHit()  { m.cacheHits.Add(1) }
func (m *Metrics) CacheMiss() { m.cacheMisses.Add(1) }

// SimCacheHit / SimCacheMiss count simulation-result-cache outcomes.
func (m *Metrics) SimCacheHit()  { m.simCacheHits.Add(1) }
func (m *Metrics) SimCacheMiss() { m.simCacheMisses.Add(1) }

// SimCacheCounts returns the raw (hits, misses) pair for the
// simulation-result cache.
func (m *Metrics) SimCacheCounts() (hits, misses int64) {
	return m.simCacheHits.Load(), m.simCacheMisses.Load()
}

// StreamEventDropped counts one slow-consumer wakeup drop on a job
// event stream.
func (m *Metrics) StreamEventDropped() { m.streamEventsDropped.Add(1) }

// StreamEventsDropped returns total slow-consumer wakeup drops.
func (m *Metrics) StreamEventsDropped() int64 { return m.streamEventsDropped.Load() }

// TierHits returns sim-cache hits split by serving tier.
func (m *Metrics) TierHits() (mem, disk int64) {
	return m.tierHitsMem.Load(), m.tierHitsDisk.Load()
}

// SpillCounts returns the spill tier's (writes landed, writes dropped
// on queue overflow, janitor evictions) counters.
func (m *Metrics) SpillCounts() (writes, drops, evictions int64) {
	return m.spillWrites.Load(), m.spillWriteDrops.Load(), m.spillEvictions.Load()
}

// SpillErrors returns spill damage events degraded to cache misses.
func (m *Metrics) SpillErrors() int64 { return m.spillErrors.Load() }

// JobsCanceled returns jobs terminated by cancellation or deadline.
func (m *Metrics) JobsCanceled() int64 { return m.jobsCanceled.Load() }

// JobsShed returns sweeps rejected by the admission gate.
func (m *Metrics) JobsShed() int64 { return m.jobsShed.Load() }

// DegradedSweeps returns fully-cached sweeps served inline past a
// saturated pool.
func (m *Metrics) DegradedSweeps() int64 { return m.degradedSweeps.Load() }

// AddSweepSeconds accumulates one sweep's wall time.
func (m *Metrics) AddSweepSeconds(d time.Duration) {
	m.sweepMicros.Add(d.Microseconds())
}

// SweepSeconds returns total wall time spent in sweeps.
func (m *Metrics) SweepSeconds() float64 {
	return float64(m.sweepMicros.Load()) / 1e6
}

// CacheHitRate returns hits/(hits+misses), 0 when no lookups happened.
func (m *Metrics) CacheHitRate() float64 {
	h, s := m.cacheHits.Load(), m.cacheMisses.Load()
	if h+s == 0 {
		return 0
	}
	return float64(h) / float64(h+s)
}

// CacheCounts returns the raw (hits, misses) pair.
func (m *Metrics) CacheCounts() (hits, misses int64) {
	return m.cacheHits.Load(), m.cacheMisses.Load()
}

// WriteTo renders every metric in Prometheus text format.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	var b []byte
	add := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}

	add("# HELP valleyd_requests_total Completed HTTP requests by path and status code.\n")
	add("# TYPE valleyd_requests_total counter\n")
	m.mu.Lock()
	keys := make([]requestKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].path != keys[j].path {
			return keys[i].path < keys[j].path
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		add("valleyd_requests_total{path=%q,code=\"%d\"} %d\n", k.path, k.code, atomic.LoadInt64(m.requests[k]))
	}
	m.mu.Unlock()

	add("# HELP valleyd_profile_cache_hits_total Profile-cache hits (including joins on in-flight computations).\n")
	add("# TYPE valleyd_profile_cache_hits_total counter\n")
	add("valleyd_profile_cache_hits_total %d\n", m.cacheHits.Load())
	add("# HELP valleyd_profile_cache_misses_total Profile-cache misses.\n")
	add("# TYPE valleyd_profile_cache_misses_total counter\n")
	add("valleyd_profile_cache_misses_total %d\n", m.cacheMisses.Load())
	add("# HELP valleyd_profile_cache_hit_rate Hit fraction over all cache lookups.\n")
	add("# TYPE valleyd_profile_cache_hit_rate gauge\n")
	add("valleyd_profile_cache_hit_rate %g\n", m.CacheHitRate())
	if m.cacheLen != nil {
		add("# HELP valleyd_profile_cache_entries Resident profile-cache entries.\n")
		add("# TYPE valleyd_profile_cache_entries gauge\n")
		add("valleyd_profile_cache_entries %d\n", m.cacheLen())
	}

	add("# HELP valleyd_jobs_enqueued_total Simulation jobs accepted.\n")
	add("# TYPE valleyd_jobs_enqueued_total counter\n")
	add("valleyd_jobs_enqueued_total %d\n", m.jobsEnqueued.Load())
	add("# HELP valleyd_jobs_done_total Simulation jobs completed successfully.\n")
	add("# TYPE valleyd_jobs_done_total counter\n")
	add("valleyd_jobs_done_total %d\n", m.jobsDone.Load())
	add("# HELP valleyd_jobs_failed_total Simulation jobs that ended in error.\n")
	add("# TYPE valleyd_jobs_failed_total counter\n")
	add("valleyd_jobs_failed_total %d\n", m.jobsFailed.Load())
	add("# HELP valleyd_jobs_canceled_total Simulation jobs terminated by cancellation, client disconnect or deadline expiry.\n")
	add("# TYPE valleyd_jobs_canceled_total counter\n")
	add("valleyd_jobs_canceled_total %d\n", m.jobsCanceled.Load())
	add("# HELP valleyd_jobs_shed_total Sweeps rejected up front by cost-aware admission control.\n")
	add("# TYPE valleyd_jobs_shed_total counter\n")
	add("valleyd_jobs_shed_total %d\n", m.jobsShed.Load())
	add("# HELP valleyd_sweeps_degraded_total Fully-cached sweeps served inline because the worker pool was saturated.\n")
	add("# TYPE valleyd_sweeps_degraded_total counter\n")
	add("valleyd_sweeps_degraded_total %d\n", m.degradedSweeps.Load())
	add("# HELP valleyd_sim_cells_total Individual workload x scheme simulations executed (cache hits excluded).\n")
	add("# TYPE valleyd_sim_cells_total counter\n")
	add("valleyd_sim_cells_total %d\n", m.cellsSimulated.Load())
	add("# HELP valleyd_sim_cells_cache_hits_total Sweep cells served from the simulation-result cache (including joins on in-flight cells).\n")
	add("# TYPE valleyd_sim_cells_cache_hits_total counter\n")
	add("valleyd_sim_cells_cache_hits_total %d\n", m.simCacheHits.Load())
	add("# HELP valleyd_sim_cells_cache_misses_total Sweep cells that had to simulate.\n")
	add("# TYPE valleyd_sim_cells_cache_misses_total counter\n")
	add("valleyd_sim_cells_cache_misses_total %d\n", m.simCacheMisses.Load())
	if m.simCacheLen != nil {
		add("# HELP valleyd_sim_cache_entries Resident simulation-result cache entries.\n")
		add("# TYPE valleyd_sim_cache_entries gauge\n")
		add("valleyd_sim_cache_entries %d\n", m.simCacheLen())
	}
	add("# HELP valleyd_sweep_seconds_total Wall time spent executing simulation sweeps.\n")
	add("# TYPE valleyd_sweep_seconds_total counter\n")
	add("valleyd_sweep_seconds_total %g\n", m.SweepSeconds())
	add("# HELP valleyd_stream_events_dropped_total Slow-consumer wakeup drops on job event streams (lag accounting; no events are lost).\n")
	add("# TYPE valleyd_stream_events_dropped_total counter\n")
	add("valleyd_stream_events_dropped_total %d\n", m.streamEventsDropped.Load())
	add("# HELP valleyd_worker_panics_total Panics recovered in sweep cells and pool workers.\n")
	add("# TYPE valleyd_worker_panics_total counter\n")
	add("valleyd_worker_panics_total %d\n", m.workerPanics.Load())

	add("# HELP valleyd_cluster_cells_dispatched_total Sweep cells dispatched to each peer worker.\n")
	add("# TYPE valleyd_cluster_cells_dispatched_total counter\n")
	m.clusterMu.Lock()
	peers := make([]string, 0, len(m.clusterDispatched))
	for p := range m.clusterDispatched {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	for _, p := range peers {
		add("valleyd_cluster_cells_dispatched_total{peer=%q} %d\n", p, atomic.LoadInt64(m.clusterDispatched[p]))
	}
	m.clusterMu.Unlock()
	add("# HELP valleyd_cluster_steals_total Cells re-dispatched after a failed attempt on a slow or dead peer.\n")
	add("# TYPE valleyd_cluster_steals_total counter\n")
	add("valleyd_cluster_steals_total %d\n", m.clusterSteals.Load())
	add("# HELP valleyd_cluster_local_cells_total Cells a coordinator executed locally because no healthy peer could take them.\n")
	add("# TYPE valleyd_cluster_local_cells_total counter\n")
	add("valleyd_cluster_local_cells_total %d\n", m.clusterLocalCells.Load())
	if m.peerUp != nil {
		add("# HELP valleyd_cluster_peer_up Peer health by configured worker (1 = reachable, 0 = in its down cooldown).\n")
		add("# TYPE valleyd_cluster_peer_up gauge\n")
		states := m.peerUp()
		ps := make([]string, 0, len(states))
		for p := range states {
			ps = append(ps, p)
		}
		sort.Strings(ps)
		for _, p := range ps {
			v := 0
			if states[p] {
				v = 1
			}
			add("valleyd_cluster_peer_up{peer=%q} %d\n", p, v)
		}
	}
	add("# HELP valleyd_cache_tier_hits_total Simulation-cache hits by serving tier (mem: resident or in-flight join; disk: promoted from the spill store).\n")
	add("# TYPE valleyd_cache_tier_hits_total counter\n")
	add("valleyd_cache_tier_hits_total{tier=\"mem\"} %d\n", m.tierHitsMem.Load())
	add("valleyd_cache_tier_hits_total{tier=\"disk\"} %d\n", m.tierHitsDisk.Load())
	add("# HELP valleyd_cache_spill_writes_total Spill entry files landed by the write-behind goroutine.\n")
	add("# TYPE valleyd_cache_spill_writes_total counter\n")
	add("valleyd_cache_spill_writes_total %d\n", m.spillWrites.Load())
	add("# HELP valleyd_cache_spill_write_drops_total Pending spill writes discarded on write-behind queue overflow (lost warmth, never correctness).\n")
	add("# TYPE valleyd_cache_spill_write_drops_total counter\n")
	add("valleyd_cache_spill_write_drops_total %d\n", m.spillWriteDrops.Load())
	add("# HELP valleyd_cache_spill_evictions_total Spill entries evicted by the byte-budget janitor (lowest cost-per-byte first).\n")
	add("# TYPE valleyd_cache_spill_evictions_total counter\n")
	add("valleyd_cache_spill_evictions_total %d\n", m.spillEvictions.Load())
	add("# HELP valleyd_cache_spill_errors_total Spill damage events (failed writes, corrupt or unreadable entries) degraded to cache misses.\n")
	add("# TYPE valleyd_cache_spill_errors_total counter\n")
	add("valleyd_cache_spill_errors_total %d\n", m.spillErrors.Load())
	if m.spillEntries != nil {
		add("# HELP valleyd_cache_spill_entries Entry files resident in the spill directory.\n")
		add("# TYPE valleyd_cache_spill_entries gauge\n")
		add("valleyd_cache_spill_entries %d\n", m.spillEntries())
	}
	if m.spillBytes != nil {
		add("# HELP valleyd_cache_spill_bytes Bytes resident in the spill directory.\n")
		add("# TYPE valleyd_cache_spill_bytes gauge\n")
		add("valleyd_cache_spill_bytes %d\n", m.spillBytes())
	}

	if m.queueDepth != nil {
		add("# HELP valleyd_queue_depth Tasks waiting in the worker-pool queue.\n")
		add("# TYPE valleyd_queue_depth gauge\n")
		add("valleyd_queue_depth %d\n", m.queueDepth())
	}
	if m.workersBusy != nil {
		add("# HELP valleyd_workers Configured worker-pool size.\n")
		add("# TYPE valleyd_workers gauge\n")
		add("valleyd_workers %d\n", m.workers)
		add("# HELP valleyd_workers_busy Workers currently executing a task.\n")
		add("# TYPE valleyd_workers_busy gauge\n")
		add("valleyd_workers_busy %d\n", m.workersBusy())
		add("# HELP valleyd_worker_utilization Busy workers over pool size.\n")
		add("# TYPE valleyd_worker_utilization gauge\n")
		util := 0.0
		if m.workers > 0 {
			util = float64(m.workersBusy()) / float64(m.workers)
		}
		add("valleyd_worker_utilization %g\n", util)
	}

	// Histograms and runtime gauges render through the obs registry, so
	// new instruments only need a Register call, not a WriteTo edit.
	b = m.reg.Collect(b)

	n, err := w.Write(b)
	return int64(n), err
}

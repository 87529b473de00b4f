package main

// Traced runs. Spans come from outside the program: a timer around each
// daemon's http.Handler, the client's own timers, each job's existing
// /v1/jobs/{id}/trace span tree, /metrics and runtime.MemStats taken
// before and after the window, and library replays of the workload's
// inputs. Spans are kept in memory and written out at the end.

import (
	"bufio"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"valleymap/internal/obs"
	"valleymap/internal/service"
)

// Layers of the wall-time ledger, named after the repository's modules.
const (
	layerService = iota
	layerWorkload
	layerGpusim
	layerCache
	layerTrace
	layerEntropy
	layerMapping
	layerCluster
	numLayers
)

var layerNames = [numLayers]string{"service", "workload", "gpusim", "cache", "trace", "entropy", "mapping", "cluster"}

// leaf is one interval of an op's server-side time owned by a layer.
// Where leaves overlap, the highest level owns the time: work (3) over
// a cell's cache handling or a peer batch (2) over queue waiting (1).
// Time no leaf covers belongs to the service layer.
type leaf struct {
	layer, level int8
	s, e         time.Time
}

type interval struct{ s, e time.Time }

// handlerSpan is one request as a daemon's handler saw it.
type handlerSpan struct {
	node, path, traceID string
	s, e                time.Time
}

// sweepSpans folds one job's span tree.
type sweepSpans struct {
	engine, setup, kernels, collect, build, queue time.Duration
	warmCellUS, putUS                             []float64
	cellEnd                                       map[string]time.Time
	cells                                         int
}

type tracer struct {
	mu    sync.Mutex
	spans []handlerSpan

	stopSampler chan struct{}
	sampled     chan uint64
}

func newTracer() *tracer { return &tracer{} }

// wrap times every request the node serves.
func (t *tracer) wrap(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := time.Now()
		h.ServeHTTP(w, r)
		e := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, handlerSpan{node, r.URL.Path, r.Header.Get("X-Trace-Id"), s, e})
		t.mu.Unlock()
	})
}

// traceJob fetches and folds a finished sweep's span tree. The fetch is
// the benchmark's own tracing work, booked outside the op.
func (c *client) traceJob(base string, o *op) {
	t0 := time.Now()
	defer func() { c.book = append(c.book, interval{t0, time.Now()}) }()
	fetch := &op{kind: "trace-fetch", traceID: o.traceID + "-t"}
	var jt service.JobTrace
	c.call(fetch, "GET", base+"/v1/jobs/"+o.jobID+"/trace", "", nil, decodeInto(&jt))
	if fetch.err != nil {
		c.b.problem("fetching spans of %s: %v", o.jobID, fetch.err)
		return
	}
	sp := &sweepSpans{cellEnd: map[string]time.Time{}}
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		s := n.Start
		e := s.Add(time.Duration(n.DurationUS) * time.Microsecond)
		switch n.Name {
		case "cell":
			sp.cells++
			var qw time.Duration
			for _, ch := range n.Children {
				d := time.Duration(ch.DurationUS) * time.Microsecond
				cs, ce := ch.Start, ch.Start.Add(d)
				switch ch.Name {
				case "queue_wait":
					qw = d
					sp.queue += d
					o.leaves = append(o.leaves, leaf{layerService, 1, cs, ce})
				case "trace_build":
					sp.build += d
					o.leaves = append(o.leaves, leaf{layerWorkload, 3, cs, ce})
				case "engine_run":
					sp.engine += d
					sp.setup += attrUS(ch, "setup_us")
					sp.kernels += attrUS(ch, "kernels_us")
					sp.collect += attrUS(ch, "collect_us")
					o.leaves = append(o.leaves, leaf{layerGpusim, 3, cs, ce})
				case "cache_put":
					sp.putUS = append(sp.putUS, float64(ch.DurationUS))
					o.leaves = append(o.leaves, leaf{layerCache, 3, cs, ce})
				}
			}
			o.leaves = append(o.leaves, leaf{layerCache, 2, s.Add(qw), e})
			if n.Attrs["cached"] == "true" {
				sp.warmCellUS = append(sp.warmCellUS, float64(n.DurationUS)-float64(qw.Microseconds()))
			}
			sp.cellEnd[n.Attrs["workload"]+"/"+n.Attrs["scheme"]] = e
			return
		case "peer_batch":
			o.leaves = append(o.leaves, leaf{layerCluster, 2, s, e})
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, n := range jt.Spans {
		walk(n)
	}
	o.spans = sp
}

func attrUS(n *obs.SpanNode, key string) time.Duration {
	v, _ := strconv.ParseInt(n.Attrs[key], 10, 64)
	return time.Duration(v) * time.Microsecond
}

// snapshot is every node's /metrics plus the process's GC counters.
type snapshot struct {
	series map[string]float64 // summed over nodes, keyed by series line
	peers  map[string]string  // peer URL → node name
	mem    runtime.MemStats
}

// snapshot scrapes every node and, the first time, starts the heap
// sampler; the second call stops it.
func (t *tracer) snapshot(b *bench, ns nodes) snapshot {
	snap := snapshot{series: map[string]float64{}, peers: map[string]string{}}
	for _, n := range ns {
		snap.peers[n.url] = n.name
		resp, err := b.hc.Get(n.url + "/metrics")
		if err != nil {
			b.problem("scraping %s: %v", n.name, err)
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if v, err := strconv.ParseFloat(line[i+1:], 64); i > 0 && err == nil {
				snap.series[line[:i]] += v
			}
		}
		resp.Body.Close()
	}
	runtime.ReadMemStats(&snap.mem)
	if t.stopSampler == nil {
		t.stopSampler, t.sampled = make(chan struct{}), make(chan uint64, 1)
		go sampleHeap(t.stopSampler, t.sampled)
	} else {
		close(t.stopSampler)
	}
	return snap
}

// sampleHeap records the peak live-heap size every 10 ms until stop
// closes, then sends it.
func sampleHeap(stop <-chan struct{}, out chan<- uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > peak {
			peak = s[0].Value.Uint64()
		}
		select {
		case <-stop:
			out <- peak
			return
		case <-tick.C:
		}
	}
}

// ledgerRow is one row of the wall-time ledger.
type ledgerRow struct {
	Layer    string  `json:"layer"`
	Ms       float64 `json:"ms"`
	WallFrac float64 `json:"wall_frac"`
	BusyFrac float64 `json:"busy_frac"`
}

type layerReport struct {
	metrics map[string]metric
	ledger  []ledgerRow
}

// layerMetricNames lists the per-layer metrics of a traced run's result
// line, as in BENCHMARK.json.
func layerMetricNames() []string {
	names := []string{
		"gpusim.engine_run_ms", "gpusim.setup_ms", "gpusim.kernels_ms", "gpusim.collect_ms",
		"gpusim.ns_per_instr", "gpusim.ns_per_tx", "gpusim.allocs_per_cell", "gpusim.bytes_per_cell",
		"workload.trace_build_ms",
		"service.queue_wait_ms", "service.http.self_ms", "service.http.requests",
		"service.events.deliver_ms", "service.events.dropped", "service.admission.refused",
		"cache.sim.hits_mem", "cache.sim.hits_disk", "cache.sim.misses", "cache.sim.hit_ratio",
		"cache.sim.warm_cell_us", "cache.sim.put_us", "cache.spill.writes", "cache.spill.drops",
		"cache.spill.errors", "cache.profile.hit_ratio",
		"trace.decode_ns_per_row.csv", "trace.decode_ns_per_row.binary", "trace.decode_ns_per_row.mmap",
		"trace.coalesce_ns_per_row", "entropy.accumulate_ns_per_req", "mapping.advise_candidate_ms",
		"cluster.cells_dispatched.w0", "cluster.cells_dispatched.w1", "cluster.owner_hit_ratio",
		"cluster.steals", "cluster.local_cells", "cluster.speedup_vs_single",
		"go.gc_pause_ms", "go.gc_cycles", "go.heap_peak_mib",
	}
	for _, l := range layerNames {
		names = append(names, "ledger."+l+"_ms")
	}
	return append(names, "ledger.tracing_ms", "unattributed_ms", "wall_ms", "trace_overhead_frac")
}

// perLayer computes the per-layer metrics and the wall-time ledger.
func (t *tracer) perLayer(b *bench, sc scenario, before, after snapshot, rp *replayStats, start, end time.Time) *layerReport {
	heapPeak := <-t.sampled
	m := map[string]metric{}
	set := func(name, unit string, v float64, note string) { m[name] = metric{Value: v, Unit: unit, Note: note} }
	delta := func(series string) float64 { return after.series[series] - before.series[series] }

	// Job span trees, per sweep.
	var sweeps []*sweepSpans
	var deliver, warm, put []float64
	var ownerHits, ownerCells float64
	clustered := len(sc.nodes()) > 1
	for _, c := range b.clients {
		for _, o := range c.ops {
			if o.err != nil || o.kind != "sweep" {
				continue
			}
			if clustered && !o.fresh {
				for _, ca := range o.cells {
					ownerCells++
					if ca.cached {
						ownerHits++
					}
				}
			}
			if o.spans == nil {
				continue
			}
			sweeps = append(sweeps, o.spans)
			warm = append(warm, o.spans.warmCellUS...)
			put = append(put, o.spans.putUS...)
			for _, ca := range o.cells {
				if e, ok := o.spans.cellEnd[ca.workload+"/"+ca.scheme]; ok {
					deliver = append(deliver, float64(ca.at.Sub(e))/1e6)
				}
			}
		}
	}
	perSweep := func(f func(*sweepSpans) time.Duration) float64 {
		var sum time.Duration
		n := 0
		for _, s := range sweeps {
			if s.cells > 0 {
				sum += f(s)
				n++
			}
		}
		return ratio(float64(sum)/1e6, float64(n))
	}
	set("gpusim.engine_run_ms", "ms", perSweep(func(s *sweepSpans) time.Duration { return s.engine }), "per sweep, job spans")
	set("gpusim.setup_ms", "ms", perSweep(func(s *sweepSpans) time.Duration { return s.setup }), "per sweep")
	set("gpusim.kernels_ms", "ms", perSweep(func(s *sweepSpans) time.Duration { return s.kernels }), "per sweep")
	set("gpusim.collect_ms", "ms", perSweep(func(s *sweepSpans) time.Duration { return s.collect }), "per sweep")
	set("workload.trace_build_ms", "ms", perSweep(func(s *sweepSpans) time.Duration { return s.build }), "per sweep")
	set("service.queue_wait_ms", "ms", perSweep(func(s *sweepSpans) time.Duration { return s.queue }), "per sweep, summed over cells")
	set("gpusim.ns_per_instr", "ns", ratio(rp.simKernelNS, rp.simInstr), "library replay")
	set("gpusim.ns_per_tx", "ns", ratio(rp.simKernelNS, rp.simTx), "library replay")
	set("gpusim.allocs_per_cell", "count", ratio(rp.simAllocs, rp.simCells), "library replay")
	set("gpusim.bytes_per_cell", "B", ratio(rp.simBytes, rp.simCells), "library replay")
	set("service.events.deliver_ms", "ms", medianOf(deliver), "median, cell span end to line received")
	set("service.events.dropped", "count", delta("valleyd_stream_events_dropped_total"), "")
	refused := 0
	for _, c := range b.clients {
		for _, o := range c.ops {
			if o.refused {
				refused++
			}
		}
	}
	set("service.admission.refused", "count", float64(refused), "429/503 responses")
	hitsMem, hitsDisk := delta(`valleyd_cache_tier_hits_total{tier="mem"}`), delta(`valleyd_cache_tier_hits_total{tier="disk"}`)
	misses := delta("valleyd_sim_cells_cache_misses_total")
	set("cache.sim.hits_mem", "count", hitsMem, "all nodes")
	set("cache.sim.hits_disk", "count", hitsDisk, "all nodes")
	set("cache.sim.misses", "count", misses, "all nodes")
	set("cache.sim.hit_ratio", "frac", ratio(hitsMem+hitsDisk, hitsMem+hitsDisk+misses), "")
	set("cache.sim.warm_cell_us", "us", medianOf(warm), "median cached cell span less its queue wait")
	set("cache.sim.put_us", "us", medianOf(put), "median cache_put span")
	set("cache.spill.writes", "count", delta("valleyd_cache_spill_writes_total"), "")
	set("cache.spill.drops", "count", delta("valleyd_cache_spill_write_drops_total"), "")
	set("cache.spill.errors", "count", delta("valleyd_cache_spill_errors_total"), "")
	ph, pm := delta("valleyd_profile_cache_hits_total"), delta("valleyd_profile_cache_misses_total")
	set("cache.profile.hit_ratio", "frac", ratio(ph, ph+pm), "")
	for _, c := range []string{"csv", "binary", "mmap"} {
		set("trace.decode_ns_per_row."+c, "ns", ratio(rp.decodeNS[c], rp.decodeRows[c]), "library replay")
	}
	set("trace.coalesce_ns_per_row", "ns", ratio(rp.coalesceNS, rp.coalesceRows), "library replay")
	set("entropy.accumulate_ns_per_req", "ns", ratio(rp.accumulateNS, rp.accumulateReqs), "library replay, per coalesced request")
	set("mapping.advise_candidate_ms", "ms", medianOf(rp.candidateMS), "library replay")
	var dispatched [2]float64
	for series, v := range after.series {
		peer, ok := strings.CutPrefix(series, `valleyd_cluster_cells_dispatched_total{peer="`)
		if !ok {
			continue
		}
		switch after.peers[strings.TrimSuffix(peer, `"}`)] {
		case "w0":
			dispatched[0] += v - before.series[series]
		case "w1":
			dispatched[1] += v - before.series[series]
		}
	}
	set("cluster.cells_dispatched.w0", "count", dispatched[0], "")
	set("cluster.cells_dispatched.w1", "count", dispatched[1], "")
	set("cluster.owner_hit_ratio", "frac", ratio(ownerHits, ownerCells), "repeat cells served warm")
	set("cluster.steals", "count", delta("valleyd_cluster_steals_total"), "")
	set("cluster.local_cells", "count", delta("valleyd_cluster_local_cells_total"), "")
	set("cluster.speedup_vs_single", "x", rp.speedup, "single-node median sweep over cluster median")
	set("go.gc_pause_ms", "ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, "whole process")
	set("go.gc_cycles", "count", float64(after.mem.NumGC-before.mem.NumGC), "")
	set("go.heap_peak_mib", "MiB", float64(heapPeak)/(1<<20), "sampled every 10 ms")

	rows, selfMS, requests := t.ledger(b, sc.nodes(), rp, start, end)
	set("service.http.self_ms", "ms", selfMS, "mean handler time not covered by a layer span")
	set("service.http.requests", "count", float64(requests), "requests timed by the handler wrappers")
	out := &layerReport{metrics: m, ledger: rows}
	for _, r := range rows {
		switch r.Layer {
		case "unattributed":
			set("unattributed_ms", "ms", r.Ms, "client time outside requests and tracing")
		case "tracing":
			set("ledger.tracing_ms", "ms", r.Ms, "the benchmark's own span fetches")
			set("trace_overhead_frac", "frac", r.WallFrac, "tracing share of wall time")
		case "wall":
			set("wall_ms", "ms", r.Ms, "measured window")
		default:
			set("ledger."+r.Layer+"_ms", "ms", r.Ms, "wall ms per client")
		}
	}
	return out
}

// ledger splits every client's wall time into layers. Each op's time
// goes to the leaves covering it (the highest level wins; equal levels
// split evenly) and otherwise to the service layer, which owns HTTP
// transport and handling. Time between ops goes to the benchmark's own
// tracing where it fetched spans, and to unattributed otherwise. The
// rows are per client, so they sum to the window's wall time.
func (t *tracer) ledger(b *bench, ns nodes, rp *replayStats, start, end time.Time) (rows []ledgerRow, selfMS float64, requests int) {
	byTrace := map[string][]handlerSpan{}
	t.mu.Lock()
	for _, s := range t.spans {
		byTrace[s.traceID] = append(byTrace[s.traceID], s)
	}
	t.mu.Unlock()
	var totals [numLayers]time.Duration
	var tracing, unattributed time.Duration
	var self time.Duration
	for _, c := range b.clients {
		busy := time.Duration(0)
		for _, o := range c.ops {
			leaves := o.leaves
			var entry *handlerSpan
			for i, hs := range byTrace[o.traceID] {
				requests++
				switch {
				case hs.node == ns[0].name && entry == nil:
					entry = &byTrace[o.traceID][i]
				case hs.path == "/v1/cells":
					leaves = append(leaves, leaf{layerCluster, 2, hs.s, hs.e})
				}
			}
			if o.spans == nil || o.spans.cells == 0 {
				// No cell spans (a coordinator's remote cells): a cell
				// ran for its reported seconds before it arrived.
				for _, ca := range o.cells {
					l := int8(layerGpusim)
					if ca.cached {
						l = layerCache
					}
					leaves = append(leaves, leaf{l, 3, ca.at.Add(-time.Duration(ca.seconds * float64(time.Second))), ca.at})
				}
			}
			if est := rp.estimates[o.replayKey]; entry != nil && est != nil {
				leaves = append(leaves, placeEstimate(est, entry.s, entry.e)...)
			}
			sp := attribute(o.start, o.end, leaves)
			for l := range totals {
				totals[l] += sp.byLayer[l]
			}
			busy += wallSub(o.end, o.start)
			if entry != nil {
				self += attribute(entry.s, entry.e, leaves).uncovered
			}
		}
		var book time.Duration
		for _, iv := range c.book {
			book += wallSub(iv.e, iv.s)
		}
		tracing += book
		unattributed += wallSub(end, start) - busy - book
	}
	n := float64(len(b.clients))
	wall := wallSub(end, start)
	busy := wall - time.Duration(float64(tracing+unattributed)/n)
	row := func(name string, d time.Duration) ledgerRow {
		ms := float64(d) / 1e6 / n
		r := ledgerRow{Layer: name, Ms: ms, WallFrac: ms / (float64(wall) / 1e6)}
		if busy > 0 && name != "tracing" && name != "unattributed" {
			r.BusyFrac = ms / (float64(busy) / 1e6)
		}
		return r
	}
	for l, d := range totals {
		rows = append(rows, row(layerNames[l], d))
	}
	rows = append(rows, row("tracing", tracing), row("unattributed", unattributed))
	rows = append(rows, ledgerRow{Layer: "wall", Ms: float64(wall) / 1e6, WallFrac: 1, BusyFrac: 1})
	matched := 0
	for _, c := range b.clients {
		for _, o := range c.ops {
			if len(byTrace[o.traceID]) > 0 {
				matched++
			}
		}
	}
	return rows, ratio(float64(self)/1e6, float64(matched)), requests
}

// wallSub is e - s on the wall clock, like attribute.
func wallSub(e, s time.Time) time.Duration { return time.Duration(e.UnixNano() - s.UnixNano()) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// placeEstimate lays a replayed request's layer times end to end from
// the handler's start, scaled down if they exceed the handler's time.
func placeEstimate(est *[numLayers]time.Duration, s, e time.Time) []leaf {
	scale := 1.0
	var sum time.Duration
	for _, d := range est {
		sum += d
	}
	if span := e.Sub(s); sum > span {
		scale = float64(span) / float64(sum)
	}
	var out []leaf
	at := s
	for l, d := range est {
		d = time.Duration(float64(d) * scale)
		if d <= 0 {
			continue
		}
		out = append(out, leaf{int8(l), 3, at, at.Add(d)})
		at = at.Add(d)
	}
	return out
}

// split is an interval's time by layer; uncovered is the part no leaf
// covered, already counted in the service layer.
type split struct {
	byLayer   [numLayers]time.Duration
	uncovered time.Duration
}

// attribute splits [s, e] among leaves: at every instant the covering
// leaves of the highest level share the time evenly; instants no leaf
// covers go to the service layer. It works in wall-clock nanoseconds:
// span times parsed from JSON carry no monotonic reading, so mixing
// them with the client's times must not mix clocks.
func attribute(s, e time.Time, leaves []leaf) split {
	var out split
	lo, hi := s.UnixNano(), e.UnixNano()
	if hi <= lo {
		return out
	}
	type span struct {
		layer, level int8
		s, e         int64
	}
	pts := []int64{lo, hi}
	var in []span
	for _, l := range leaves {
		a, z := max(l.s.UnixNano(), lo), min(l.e.UnixNano(), hi)
		if z > a {
			in = append(in, span{l.layer, l.level, a, z})
			pts = append(pts, a, z)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	for i := 0; i+1 < len(pts); i++ {
		a, z := pts[i], pts[i+1]
		if z == a {
			continue
		}
		top, count := int8(-1), int64(0)
		for _, l := range in {
			if l.s <= a && l.e >= z {
				switch {
				case l.level > top:
					top, count = l.level, 1
				case l.level == top:
					count++
				}
			}
		}
		d := time.Duration(z - a)
		if count == 0 {
			out.byLayer[layerService] += d
			out.uncovered += d
			continue
		}
		share, rest := d/time.Duration(count), d%time.Duration(count)
		for _, l := range in {
			if l.level == top && l.s <= a && l.e >= z {
				out.byLayer[l.layer] += share + rest
				rest = 0
			}
		}
	}
	return out
}

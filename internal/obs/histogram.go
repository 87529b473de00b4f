package obs

import (
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// ExpBuckets returns n exponentially growing upper bounds starting at
// start: start, start×factor, start×factor², … . The implicit final
// +Inf bucket is not included (the Histogram adds it).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefaultLatencyBuckets is the standard latency layout: 12 buckets
// growing ×4 from 1 µs (1 µs … ~4.2 s), covering per-batch pipeline
// steps through full sweep cells at half-decade resolution.
func DefaultLatencyBuckets() []float64 { return ExpBuckets(1e-6, 4, 12) }

// Histogram is a fixed-bucket histogram with lock-free observation:
// counts are atomic per bucket, the sum is a CAS loop over float bits.
// Observe performs zero allocations. Construct with NewHistogram or
// through a HistogramVec.
type Histogram struct {
	name   string // family name (no suffix)
	help   string
	labels string // pre-rendered `k="v",…` list, "" for no labels

	bounds  []float64 // ascending upper bounds; +Inf is implicit
	counts  []atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
}

// NewHistogram builds an unlabeled histogram family. bounds must ascend;
// nil uses DefaultLatencyBuckets.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets()
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must ascend")
	}
	h := &Histogram{name: name, help: help, bounds: bounds}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	return h
}

// Observe records one value. It is safe for concurrent use and never
// allocates.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	h.count.Add(1)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveSince records the seconds elapsed since t.
func (h *Histogram) ObserveSince(t time.Time) { h.ObserveDuration(time.Since(t)) }

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Name returns the family name.
func (h *Histogram) Name() string { return h.name }

// formatLe renders a bucket bound the way Prometheus clients do.
func formatLe(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeProm renders this histogram's series (without HELP/TYPE, which
// belong to the family and are written once by the owner).
func (h *Histogram) writeProm(b []byte) []byte {
	sep := ""
	if h.labels != "" {
		sep = ","
	}
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatLe(h.bounds[i])
		}
		b = append(b, h.name...)
		b = append(b, "_bucket{"...)
		b = append(b, h.labels...)
		b = append(b, sep...)
		b = append(b, "le=\""...)
		b = append(b, le...)
		b = append(b, "\"} "...)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	b = sample(b, h.name+"_sum", h.labels, h.Sum())
	return sample(b, h.name+"_count", h.labels, float64(h.Count()))
}

// Collect implements Collector for a standalone histogram family.
func (h *Histogram) Collect(b []byte) []byte {
	return h.writeProm(header(b, h.name, "histogram", h.help))
}

// HistogramVec is a histogram family partitioned by a fixed set of
// label names. Children are created on first With and live for the
// process lifetime, so callers on hot paths should resolve their child
// once and hold the *Histogram.
type HistogramVec struct {
	vec[Histogram]
	bounds []float64
}

// NewHistogramVec builds a labeled histogram family. bounds nil uses
// DefaultLatencyBuckets.
func NewHistogramVec(name, help string, labelNames []string, bounds []float64) *HistogramVec {
	if len(labelNames) == 0 {
		panic("obs: HistogramVec needs label names (use NewHistogram)")
	}
	if bounds == nil {
		bounds = DefaultLatencyBuckets()
	}
	return &HistogramVec{vec: newVec[Histogram](name, help, labelNames), bounds: bounds}
}

// With returns the child histogram for the given label values (one per
// label name, in order), creating it on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.with(values, func(labels string) *Histogram {
		h := NewHistogram(v.name, v.help, v.bounds)
		h.labels = labels
		return h
	})
}

// Collect renders the family: HELP/TYPE once, then every child's series
// in creation order.
func (v *HistogramVec) Collect(b []byte) []byte {
	b = header(b, v.name, "histogram", v.help)
	for _, h := range v.snapshot() {
		b = h.writeProm(b)
	}
	return b
}

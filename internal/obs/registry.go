package obs

import (
	"math"
	"sort"
	"strconv"
)

// Collector renders one or more complete metric families (HELP/TYPE
// preamble plus sample lines) into a Prometheus text-format buffer.
type Collector interface {
	Collect(b []byte) []byte
}

// header writes a family's HELP/TYPE preamble. Every collector in this
// package goes through it, so each family carries exactly one of each.
func header(b []byte, name, typ, help string) []byte {
	b = append(b, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	return append(b, '\n')
}

// sample writes one series line; labels is a pre-rendered `k="v",…`
// list, "" for none. Integral values render as integers (a count of a
// million reads 1000000, not 1e+06), others in shortest 'g' form.
func sample(b []byte, name, labels string, v float64) []byte {
	b = append(b, name...)
	if labels != "" {
		b = append(b, '{')
		b = append(b, labels...)
		b = append(b, '}')
	}
	b = append(b, ' ')
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		b = strconv.AppendInt(b, int64(v), 10)
	} else {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, '\n')
}

// GaugeFunc is a gauge family sampled at render time.
type GaugeFunc struct {
	Name string
	Help string
	Fn   func() float64
}

// Collect implements Collector.
func (g GaugeFunc) Collect(b []byte) []byte {
	return sample(header(b, g.Name, "gauge", g.Help), g.Name, "", g.Fn())
}

// CounterFunc is a counter family sampled at render time from a
// monotone source the owner already keeps (e.g. accumulated seconds).
type CounterFunc struct {
	Name string
	Help string
	Fn   func() float64
}

// Collect implements Collector.
func (c CounterFunc) Collect(b []byte) []byte {
	return sample(header(b, c.Name, "counter", c.Help), c.Name, "", c.Fn())
}

// GaugeVecFunc is a gauge family with one label, sampled at render
// time: Fn returns a value per label value, rendered in sorted label
// order.
type GaugeVecFunc struct {
	Name  string
	Help  string
	Label string
	Fn    func() map[string]float64
}

// Collect implements Collector.
func (g GaugeVecFunc) Collect(b []byte) []byte {
	vals := g.Fn()
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = header(b, g.Name, "gauge", g.Help)
	for _, k := range keys {
		b = sample(b, g.Name, g.Label+"="+strconv.Quote(k), vals[k])
	}
	return b
}

// Registry is an ordered set of collectors rendered into one exposition
// document. Registration order is exposition order, which keeps
// /metrics output stable for tests and diffing.
type Registry struct {
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register appends a collector. Registration is construction-time
// wiring, not hot path; it is not synchronized.
func (r *Registry) Register(c Collector) { r.collectors = append(r.collectors, c) }

// Collect renders every registered collector in order.
func (r *Registry) Collect(b []byte) []byte {
	for _, c := range r.collectors {
		b = c.Collect(b)
	}
	return b
}

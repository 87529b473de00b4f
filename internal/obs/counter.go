package obs

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 series: a standalone
// family from NewCounter, or one child of a CounterVec. Add is
// lock-free and never allocates.
type Counter struct {
	name   string
	help   string
	labels string // pre-rendered `k="v",…` list, "" for no labels
	v      atomic.Int64
}

// NewCounter builds an unlabeled counter family.
func NewCounter(name, help string) *Counter { return &Counter{name: name, help: help} }

// Add increases the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

func (c *Counter) writeProm(b []byte) []byte {
	return sample(b, c.name, c.labels, float64(c.v.Load()))
}

// Collect implements Collector for a standalone counter family.
func (c *Counter) Collect(b []byte) []byte {
	return c.writeProm(header(b, c.name, "counter", c.help))
}

// CounterVec is a counter family partitioned by a fixed set of label
// names. Like HistogramVec, children are created on first With and
// live for the process lifetime; hot paths resolve their child once.
type CounterVec struct {
	vec[Counter]
}

// NewCounterVec builds a labeled counter family.
func NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	if len(labelNames) == 0 {
		panic("obs: CounterVec needs label names (use NewCounter)")
	}
	return &CounterVec{newVec[Counter](name, help, labelNames)}
}

// With returns the child counter for the given label values (one per
// label name, in order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.with(values, func(labels string) *Counter {
		return &Counter{name: v.name, help: v.help, labels: labels}
	})
}

// Collect renders the family: HELP/TYPE once, then every child's
// series in creation order.
func (v *CounterVec) Collect(b []byte) []byte {
	b = header(b, v.name, "counter", v.help)
	for _, c := range v.snapshot() {
		b = c.writeProm(b)
	}
	return b
}

// vec holds a labeled family's children, keyed by their raw label
// values and kept in creation order for stable exposition.
type vec[T any] struct {
	name       string
	help       string
	labelNames []string

	mu       sync.Mutex
	children map[string]*T // key: each value as uvarint length + bytes
	order    []*T
}

func newVec[T any](name, help string, labelNames []string) vec[T] {
	return vec[T]{name: name, help: help, labelNames: labelNames, children: map[string]*T{}}
}

// with returns the child for values, building it with mk on first use.
// The lookup key is built in a stack buffer and the map is indexed
// with string(key), which does not copy, so resolving an existing
// child allocates nothing; the `k="v",…` list is rendered only when a
// child is created.
func (v *vec[T]) with(values []string, mk func(labels string) *T) *T {
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", v.name, len(v.labelNames), len(values)))
	}
	var buf [128]byte
	key := buf[:0]
	for _, val := range values {
		key = binary.AppendUvarint(key, uint64(len(val)))
		key = append(key, val...)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[string(key)]; ok {
		return c
	}
	var labels []byte
	for i, val := range values {
		if i > 0 {
			labels = append(labels, ',')
		}
		labels = append(labels, v.labelNames[i]...)
		labels = append(labels, '=')
		labels = strconv.AppendQuote(labels, val)
	}
	c := mk(string(labels))
	v.children[string(key)] = c
	v.order = append(v.order, c)
	return c
}

// snapshot returns the children in creation order. Children are only
// ever appended, so the capped slice stays valid after the lock drops.
func (v *vec[T]) snapshot() []*T {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.order[:len(v.order):len(v.order)]
}

package store

import (
	"container/list"
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError is the error GetOrCompute returns when the computation
// panicked. It preserves the panic value and the stack captured at the
// panic site, so callers can account for it as a crash (and log the
// real stack) rather than an ordinary compute failure.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("store: computation panicked: %v", e.Value)
}

// Weight is the eviction weight of one entry: Cost is how expensive
// the entry was to produce (the service uses measured wall seconds),
// Bytes its approximate resident size. Eviction prefers the lowest
// Cost/Bytes density — the cheapest-to-recompute bytes go first.
type Weight struct {
	Cost  float64
	Bytes int
}

// evictScan bounds the eviction victim search: only the evictScan
// least-recently-used entries are candidates, so one eviction is O(1)-ish
// while still letting an order-of-magnitude-more-expensive entry at the
// cold tail outlive cheap neighbours. Recency stays the first-order
// signal; cost breaks ties inside the cold tail.
const evictScan = 16

// shard is one lock's worth of the memory tier: a content-addressed
// LRU with in-flight request coalescing. Concurrent lookups for the
// same key share one computation (the first caller computes, the rest
// block on it and count as hits), so a burst of identical requests
// costs one computation. With a weigher, eviction is cost-aware: among
// the least-recently-used entries, the cheapest cost-per-byte goes
// first.
type shard[V any] struct {
	mu       sync.Mutex
	capacity int
	weigh    func(V) Weight // nil: uniform weights, exact LRU
	ll       *list.List     // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*flight[V]
}

type entry[V any] struct {
	key string
	val V
	w   Weight
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newShard[V any](capacity int, weigh func(V) Weight) *shard[V] {
	return &shard[V]{
		capacity: max(capacity, 1),
		weigh:    weigh,
		ll:       list.New(),
		items:    map[string]*list.Element{},
		inflight: map[string]*flight[V]{},
	}
}

func (sh *shard[V]) len() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.ll.Len()
}

// getOrCompute returns the resident value for key, or runs fn once to
// produce and insert it. hit is true when the value was resident or
// came from joining another caller's in-flight computation. Errors are
// not cached, and a panic in fn surfaces as *PanicError. evicted holds
// the entries the insert displaced, for the caller to spill now that
// the lock is released.
func (sh *shard[V]) getOrCompute(key string, fn func() (V, error)) (val V, hit bool, evicted []entry[V], err error) {
	sh.mu.Lock()
	if el, ok := sh.items[key]; ok {
		sh.ll.MoveToFront(el)
		v := el.Value.(*entry[V]).val
		sh.mu.Unlock()
		return v, true, nil, nil
	}
	if f, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		<-f.done
		if f.err != nil {
			var zero V
			return zero, false, nil, f.err
		}
		return f.val, true, nil, nil
	}
	f := &flight[V]{done: make(chan struct{})}
	sh.inflight[key] = f
	sh.mu.Unlock()

	// A panicking computation must still unregister the flight and close
	// done, or every later lookup of this key would block forever.
	func() {
		defer func() {
			if r := recover(); r != nil {
				f.err = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		f.val, f.err = fn()
	}()

	sh.mu.Lock()
	delete(sh.inflight, key)
	if f.err == nil {
		evicted = sh.insertLocked(key, f.val)
	}
	sh.mu.Unlock()
	close(f.done)
	return f.val, false, evicted, f.err
}

// peek reports the resident value for key without touching recency.
func (sh *shard[V]) peek(key string) (V, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[key]; ok {
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// entries returns the resident entries least recently used first.
func (sh *shard[V]) entries() []entry[V] {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]entry[V], 0, sh.ll.Len())
	for el := sh.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, *el.Value.(*entry[V]))
	}
	return out
}

// insertLocked installs (or refreshes) an entry and returns the entries
// evicted to make room.
func (sh *shard[V]) insertLocked(key string, val V) []entry[V] {
	w := Weight{Cost: 1, Bytes: 1}
	if sh.weigh != nil {
		w = sh.weigh(val)
		w.Bytes = max(w.Bytes, 1)
		w.Cost = max(w.Cost, 0)
	}
	if el, ok := sh.items[key]; ok {
		e := el.Value.(*entry[V])
		e.val, e.w = val, w
		sh.ll.MoveToFront(el)
		return nil
	}
	sh.items[key] = sh.ll.PushFront(&entry[V]{key: key, val: val, w: w})
	var evicted []entry[V]
	for sh.ll.Len() > sh.capacity {
		evicted = append(evicted, sh.evictLocked())
	}
	return evicted
}

// evictLocked removes one entry: among the evictScan least-recently-used
// entries, the one with the lowest cost density (Cost/Bytes). Strict
// comparison means uniform weights always evict the list tail — exact
// LRU — and ties among weighted entries favor the colder entry. The
// front element is never a candidate: at eviction time it is the entry
// whose insert triggered the eviction, and letting a cheap newcomer
// evict itself would keep it from ever becoming resident (every repeat
// lookup would recompute it). Callers guarantee len > capacity >= 1.
func (sh *shard[V]) evictLocked() entry[V] {
	density := func(el *list.Element) float64 {
		e := el.Value.(*entry[V])
		return e.w.Cost / float64(e.w.Bytes)
	}
	victim := sh.ll.Back()
	scan := min(evictScan, sh.ll.Len()-1)
	best := density(victim)
	for el, n := victim.Prev(), 1; el != nil && n < scan; el, n = el.Prev(), n+1 {
		if d := density(el); d < best {
			victim, best = el, d
		}
	}
	e := victim.Value.(*entry[V])
	sh.ll.Remove(victim)
	delete(sh.items, e.key)
	return *e
}

package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// fill inserts keys with per-key weights through the compute path.
func fill(t *testing.T, c *Store[string], keys []string) {
	t.Helper()
	for _, k := range keys {
		k := k
		if _, tier, err := c.GetOrCompute(k, func() (string, error) { return "v:" + k, nil }); err != nil || tier != TierMiss {
			t.Fatalf("inserting %q: tier=%v err=%v", k, tier, err)
		}
	}
}

func resident(c *Store[string]) map[string]bool {
	out := map[string]bool{}
	for _, e := range c.entries() {
		out[e.key] = true
	}
	return out
}

// The helpers below stand in for the insert, probe and listing calls
// the service never makes.

// add inserts (or refreshes) an entry without a computation, making it
// the most recently used; what it evicts spills as usual.
func (s *Store[V]) add(key string, val V) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	evicted := sh.insertLocked(key, val)
	sh.mu.Unlock()
	for _, e := range evicted {
		s.spill(e)
	}
}

// peek reports the memory-resident value without touching recency,
// the observers or the disk tier.
func (s *Store[V]) peek(key string) (V, bool) { return s.shardFor(key).peek(key) }

// entries lists every shard's resident entries, least recently used
// first within a shard, shards in index order.
func (s *Store[V]) entries() []entry[V] {
	var out []entry[V]
	for _, sh := range s.shards {
		out = append(out, sh.entries()...)
	}
	return out
}

// TestLRUCostWeightedEviction is the table-driven contract of the
// cost-aware policy within one shard: among the least-recently-used
// entries, the lowest Cost/Bytes density goes first; without a
// weigher (the profile cache's configuration), eviction is exact LRU.
func TestLRUCostWeightedEviction(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		weights  map[string]Weight // nil entry = unweighted cache
		insert   []string
		touch    []string // Gets between inserts and the overflow insert
		overflow []string
		evicted  []string
		kept     []string
	}{
		{
			name:     "unweighted is exact LRU",
			capacity: 3,
			insert:   []string{"a", "b", "c"},
			overflow: []string{"d"},
			evicted:  []string{"a"},
			kept:     []string{"b", "c", "d"},
		},
		{
			name:     "unweighted capacity 2 evicts the oldest",
			capacity: 2,
			insert:   []string{"a", "b"},
			overflow: []string{"c"},
			evicted:  []string{"a"},
			kept:     []string{"b", "c"},
		},
		{
			name:     "unweighted + touch",
			capacity: 2,
			insert:   []string{"a", "b"},
			touch:    []string{"a"},
			overflow: []string{"c"},
			evicted:  []string{"b"},
			kept:     []string{"a", "c"},
		},
		{
			name:     "expensive tail entry survives, cheap neighbor goes",
			capacity: 3,
			weights:  map[string]Weight{"slow": {Cost: 60, Bytes: 512}, "quick": {Cost: 0.001, Bytes: 512}, "mid": {Cost: 1, Bytes: 512}, "new": {Cost: 1, Bytes: 512}},
			insert:   []string{"slow", "quick", "mid"},
			overflow: []string{"new"},
			evicted:  []string{"quick"},
			kept:     []string{"slow", "mid", "new"},
		},
		{
			name:     "density not raw cost: big cheap bytes go first",
			capacity: 2,
			weights:  map[string]Weight{"bulky": {Cost: 2, Bytes: 4096}, "dense": {Cost: 1, Bytes: 64}, "new": {Cost: 1, Bytes: 64}},
			insert:   []string{"bulky", "dense"},
			overflow: []string{"new"},
			evicted:  []string{"bulky"}, // 2/4096 << 1/64
			kept:     []string{"dense", "new"},
		},
		{
			name:     "equal weights fall back to recency",
			capacity: 3,
			weights:  map[string]Weight{"a": {Cost: 1, Bytes: 1}, "b": {Cost: 1, Bytes: 1}, "c": {Cost: 1, Bytes: 1}, "d": {Cost: 1, Bytes: 1}},
			insert:   []string{"a", "b", "c"},
			touch:    []string{"a"},
			overflow: []string{"d"},
			evicted:  []string{"b"},
			kept:     []string{"a", "c", "d"},
		},
		{
			name:     "repeated overflow drains cheap entries in cost order",
			capacity: 3,
			weights: map[string]Weight{
				"gold": {Cost: 100, Bytes: 512}, "cheap1": {Cost: 0.01, Bytes: 512}, "cheap2": {Cost: 0.02, Bytes: 512},
				"n1": {Cost: 5, Bytes: 512}, "n2": {Cost: 5, Bytes: 512},
			},
			insert:   []string{"gold", "cheap1", "cheap2"},
			overflow: []string{"n1", "n2"},
			evicted:  []string{"cheap1", "cheap2"},
			kept:     []string{"gold", "n1", "n2"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options[string]{Capacity: tc.capacity}
			if tc.weights != nil {
				opt.Weigh = func(v string) Weight {
					// Values are "v:<key>"; weigh by key.
					return tc.weights[v[2:]]
				}
			}
			c := newStore(opt, 1)
			fill(t, c, tc.insert)
			for _, k := range tc.touch {
				if _, ok := c.peek(k); !ok {
					t.Fatalf("touch target %q not resident", k)
				}
				c.GetOrCompute(k, func() (string, error) { return "v:" + k, nil })
			}
			fill(t, c, tc.overflow)

			if got := c.Len(); got != tc.capacity {
				t.Fatalf("len = %d, want capacity %d", got, tc.capacity)
			}
			res := resident(c)
			for _, k := range tc.evicted {
				if res[k] {
					t.Errorf("%q should have been evicted; resident: %v", k, res)
				}
			}
			for _, k := range tc.kept {
				if !res[k] {
					t.Errorf("%q should have survived; resident: %v", k, res)
				}
			}
			// Residency is what lookups see: kept keys hit, evicted
			// keys recompute.
			for _, k := range tc.kept {
				if _, tier, _ := c.GetOrCompute(k, func() (string, error) { return "v:" + k, nil }); tier != TierMem {
					t.Errorf("lookup of kept %q: tier %v, want mem", k, tier)
				}
			}
			for _, k := range tc.evicted {
				if _, tier, _ := c.GetOrCompute(k, func() (string, error) { return "v:" + k, nil }); tier != TierMiss {
					t.Errorf("lookup of evicted %q: tier %v, want miss", k, tier)
				}
			}
		})
	}
}

// TestLRUNewcomerIsNeverItsOwnVictim: on a small cache (capacity below
// the scan window) full of expensive entries, a newly inserted cheap
// entry must still become resident — the eviction scan may not pick
// the just-inserted front element, or a cheap-but-hot key would be
// recomputed on every single lookup forever.
func TestLRUNewcomerIsNeverItsOwnVictim(t *testing.T) {
	weights := map[string]Weight{
		"exp1":  {Cost: 100, Bytes: 1},
		"exp2":  {Cost: 50, Bytes: 1},
		"cheap": {Cost: 0.001, Bytes: 1},
	}
	c := newStore(Options[string]{Capacity: 2, Weigh: func(v string) Weight { return weights[v[2:]] }}, 1)
	fill(t, c, []string{"exp1", "exp2", "cheap"})
	if _, ok := c.peek("cheap"); !ok {
		t.Fatalf("cheap newcomer evicted itself; resident: %v", resident(c))
	}
	// The victim was the lower-density old entry, not the newcomer.
	if _, ok := c.peek("exp2"); ok {
		t.Errorf("exp2 (density 50) survived over exp1 (density 100); resident: %v", resident(c))
	}
	// And the now-resident cheap entry hits instead of recomputing.
	if _, tier, _ := c.GetOrCompute("cheap", func() (string, error) { return "v:cheap", nil }); tier != TierMem {
		t.Error("cheap entry not resident after insert")
	}
	// Capacity 1: the degenerate case must still admit every newcomer.
	c1 := newStore(Options[string]{Capacity: 1, Weigh: func(v string) Weight { return weights[v[2:]] }}, 1)
	fill(t, c1, []string{"exp1", "cheap"})
	if _, ok := c1.peek("cheap"); !ok {
		t.Error("capacity-1 cache rejected its newest entry")
	}
}

// TestLRUWeightSanitized: non-positive bytes and negative cost from a
// weigher must not divide by zero or produce negative densities that
// shield entries forever.
func TestLRUWeightSanitized(t *testing.T) {
	c := newStore(Options[string]{Capacity: 2, Weigh: func(v string) Weight {
		return Weight{Cost: -5, Bytes: 0}
	}}, 1)
	fill(t, c, []string{"a", "b", "c"})
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

// TestLRUEntriesRoundTrip: a shard lists its entries LRU-first, so
// feeding them back through an insert reconstructs contents and
// recency.
func TestLRUEntriesRoundTrip(t *testing.T) {
	src := newStore(Options[string]{Capacity: 4}, 1)
	fill(t, src, []string{"a", "b", "c", "d"})
	src.GetOrCompute("a", func() (string, error) { return "v:a", nil }) // a becomes MRU

	entries := src.entries()
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(entries))
	}
	if entries[0].key != "b" || entries[len(entries)-1].key != "a" {
		t.Fatalf("entries order %v, want LRU-first (b … a)", entries)
	}

	dst := newStore(Options[string]{Capacity: 4}, 1)
	for _, e := range entries {
		dst.add(e.key, e.val)
	}
	if got, ok := dst.peek("a"); !ok || got != "v:a" {
		t.Fatalf("a after round trip: %q %v", got, ok)
	}
	// Overflowing the rebuilt cache must evict the original LRU order:
	// b first, not a.
	fill(t, dst, []string{"e"})
	res := resident(dst)
	if res["b"] || !res["a"] {
		t.Errorf("recency lost in round trip; resident: %v", res)
	}
}

// TestLRUCoalescingAndErrors pins the behavior the service relies on:
// in-flight coalescing, uncached errors, panic recovery.
func TestLRUCoalescingAndErrors(t *testing.T) {
	var computes atomic.Int64
	var hits atomic.Int64
	c := newStore(Options[int]{Capacity: 8, OnHit: func(Tier) { hits.Add(1) }}, 1)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.GetOrCompute("k", func() (int, error) {
				computes.Add(1)
				<-gate
				return 42, nil
			})
		}()
	}
	close(gate)
	wg.Wait()
	if computes.Load() != 1 {
		t.Errorf("computed %d times, want 1", computes.Load())
	}
	if hits.Load() != 9 {
		t.Errorf("hits = %d, want 9", hits.Load())
	}

	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute("err", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, tier, _ := c.GetOrCompute("err", func() (int, error) { return 1, nil }); tier != TierMiss {
		t.Error("errors must not be cached")
	}
	if _, _, err := c.GetOrCompute("panic", func() (int, error) { panic("ow") }); err == nil {
		t.Fatal("panic must surface as error")
	}
	if _, tier, err := c.GetOrCompute("panic", func() (int, error) { return 2, nil }); tier != TierMiss || err != nil {
		t.Errorf("retry after panic: tier=%v err=%v", tier, err)
	}
}

// TestLRUEvictScanWindow: an expensive entry deeper than the scan
// window is still protected once eviction pressure walks the tail to
// it — i.e. the window bounds work per eviction, not correctness.
func TestLRUEvictScanWindow(t *testing.T) {
	weights := map[string]Weight{}
	c := newStore(Options[string]{Capacity: evictScan + 4, Weigh: func(v string) Weight {
		return weights[v[2:]]
	}}, 1)
	// One precious entry buried at the very bottom of the LRU list,
	// then a tail of cheap entries longer than the scan window.
	weights["gold"] = Weight{Cost: 1000, Bytes: 1}
	fill(t, c, []string{"gold"})
	var cheap []string
	for i := 0; i < evictScan+3; i++ {
		k := fmt.Sprintf("cheap%d", i)
		weights[k] = Weight{Cost: 0.001, Bytes: 1}
		cheap = append(cheap, k)
	}
	fill(t, c, cheap)
	// Push enough new mid-cost entries to force many evictions.
	for i := 0; i < evictScan; i++ {
		k := fmt.Sprintf("new%d", i)
		weights[k] = Weight{Cost: 1, Bytes: 1}
		fill(t, c, []string{k})
	}
	if _, ok := c.peek("gold"); !ok {
		t.Error("high-cost entry evicted while cheaper candidates were in the scan window")
	}
}

package store

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// TestShardedSingleShardParity pins the contract the eviction tests
// rely on: a one-shard Store makes exactly the same decisions as a bare
// shard fed the identical operation sequence — same hits, same
// residency, same eviction order.
func TestShardedSingleShardParity(t *testing.T) {
	bare := newShard[int](4, nil)
	sharded := newStore(Options[int]{Capacity: 4}, 1)

	// A mixed workload: inserts past capacity, refreshes, repeat gets.
	keys := []string{"a", "b", "c", "d", "e", "b", "f", "a", "g", "c", "b"}
	for i, k := range keys {
		v := i * 10
		bv, bhit, _, _ := bare.getOrCompute(k, func() (int, error) { return v, nil })
		sv, tier, _ := sharded.GetOrCompute(k, func() (int, error) { return v, nil })
		if shit := tier != TierMiss; bhit != shit || bv != sv {
			t.Fatalf("op %d (%s): bare (v=%d hit=%v) vs sharded (v=%d hit=%v)", i, k, bv, bhit, sv, shit)
		}
	}
	if bare.len() != sharded.Len() {
		t.Fatalf("Len: bare %d vs sharded %d", bare.len(), sharded.Len())
	}
	be, se := bare.entries(), sharded.entries()
	for i := range be {
		if be[i] != se[i] {
			t.Fatalf("entry %d: bare %+v vs sharded %+v (eviction order diverged)", i, be[i], se[i])
		}
	}
}

// TestShardedParityUnderUniformWeights: with uniform weights the
// sharded store and a per-shard set of bare shards make identical
// eviction decisions, because a key's shard is a pure function of its
// bytes. This is the "sharding moves entries, never changes policy"
// invariant.
func TestShardedParityUnderUniformWeights(t *testing.T) {
	const shards, capacity = 4, 8
	sharded := newStore(Options[int]{Capacity: capacity}, shards)
	// A reference model: one bare shard per shard with the same
	// per-shard capacity split the constructor uses.
	per := capacity / shards
	ref := make([]*shard[int], shards)
	for i := range ref {
		ref[i] = newShard[int](per, nil)
	}
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("key-%d", i%12)
		v := i
		sharded.GetOrCompute(k, func() (int, error) { return v, nil })
		ref[shardIndex(k, uint64(shards-1))].getOrCompute(k, func() (int, error) { return v, nil })
	}
	want := map[string]int{}
	for _, l := range ref {
		for _, e := range l.entries() {
			want[e.key] = e.val
		}
	}
	got := map[string]int{}
	for _, e := range sharded.entries() {
		got[e.key] = e.val
	}
	if len(got) != len(want) {
		t.Fatalf("residency diverged: sharded %d entries vs model %d", len(got), len(want))
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			t.Errorf("key %s: sharded has (%d,%v), model has %d", k, gv, ok, v)
		}
	}
}

// TestShardedDefaultShardCount: New picks the next power of two >=
// 2 x GOMAXPROCS, and explicit power-of-two counts are kept as given.
func TestShardedDefaultShardCount(t *testing.T) {
	s := New(Options[int]{Capacity: 1 << 16})
	want := 1
	for want < 2*runtime.GOMAXPROCS(0) {
		want <<= 1
	}
	if got := len(s.shards); got != want {
		t.Errorf("default shard count = %d, want %d (2 x GOMAXPROCS=%d rounded up)", got, want, runtime.GOMAXPROCS(0))
	}
	for _, n := range []int{1, 2, 8} {
		if got := len(newStore(Options[int]{Capacity: 16}, n).shards); got != n {
			t.Errorf("%d shards requested, got %d, want exactly %d", n, got, n)
		}
	}
}

// TestShardedCapacityIsExact: the shards together hold at most
// Capacity entries. The shard count is capped at the largest power of
// two <= Capacity and Capacity is split so the per-shard capacities sum
// to exactly Capacity, even when Capacity is below the shard count.
func TestShardedCapacityIsExact(t *testing.T) {
	for _, tc := range []struct{ capacity, shards, wantShards int }{
		{capacity: 5, shards: 8, wantShards: 4},
		{capacity: 1, shards: 8, wantShards: 1},
		{capacity: 24, shards: 4, wantShards: 4},
		{capacity: 100, shards: 16, wantShards: 16},
	} {
		s := newStore(Options[int]{Capacity: tc.capacity}, tc.shards)
		if got := len(s.shards); got != tc.wantShards {
			t.Errorf("capacity %d over %d shards: %d shards, want %d", tc.capacity, tc.shards, got, tc.wantShards)
		}
		sum := 0
		for _, sh := range s.shards {
			sum += sh.capacity
		}
		if sum != tc.capacity {
			t.Errorf("capacity %d over %d shards: per-shard capacities sum to %d", tc.capacity, tc.shards, sum)
		}
		for i := 0; i < 100; i++ {
			s.GetOrCompute(fmt.Sprintf("k%d", i), func() (int, error) { return i, nil })
		}
		if n := s.Len(); n > tc.capacity {
			t.Errorf("capacity %d over %d shards holds %d entries after 100 inserts", tc.capacity, tc.shards, n)
		}
		if tc.capacity == 1 && s.Len() != 1 {
			t.Errorf("capacity 1 holds %d entries, want 1", s.Len())
		}
	}
}

// TestShardIndexDeterministic: the shard hash must be a pure function
// of the key bytes (it decides which spill decisions a key sees across
// restarts), and must actually spread keys.
func TestShardIndexDeterministic(t *testing.T) {
	const mask = 15
	used := map[uint64]bool{}
	for i := 0; i < 256; i++ {
		k := fmt.Sprintf("sim|W%d|tiny|BASE|baseline|1", i)
		a, b := shardIndex(k, mask), shardIndex(k, mask)
		if a != b {
			t.Fatalf("shardIndex(%q) unstable: %d vs %d", k, a, b)
		}
		if a > mask {
			t.Fatalf("shardIndex(%q) = %d escapes mask %d", k, a, mask)
		}
		used[a] = true
	}
	if len(used) < 12 {
		t.Errorf("256 keys landed on only %d of 16 shards — hash is not spreading", len(used))
	}
}

// TestShardedCoalescing: concurrent callers of one key coalesce on a
// single computation inside the key's shard, even with many shards.
func TestShardedCoalescing(t *testing.T) {
	s := newStore(Options[int]{Capacity: 64}, 8)
	var computes atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := s.GetOrCompute("hot", func() (int, error) {
				computes.Add(1)
				<-gate
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("GetOrCompute = (%d, %v)", v, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("%d computations for one key, want 1 (coalescing broken)", n)
	}
}

// TestShardedPanicPropagation: a panicking computation surfaces as
// *PanicError from the key's shard and is not cached.
func TestShardedPanicPropagation(t *testing.T) {
	s := newStore(Options[int]{Capacity: 8}, 4)
	_, _, err := s.GetOrCompute("boom", func() (int, error) { panic("kapow") })
	var pe *PanicError
	if !errors.As(err, &pe) || fmt.Sprint(pe.Value) != "kapow" {
		t.Fatalf("err = %v, want *PanicError{kapow}", err)
	}
	v, _, err := s.GetOrCompute("boom", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("panicked entry was cached: got (%d, %v), want fresh 7", v, err)
	}
}

// TestShardedOnEvictDelivery: evictions from any shard reach the spill
// tier with the entry's key, value and sampled cost, and resident
// entries carry their sampled weight.
func TestShardedOnEvictDelivery(t *testing.T) {
	disk := openTestDisk(t, DiskOptions{})
	s := newStore(Options[int]{
		Capacity: 4,
		Weigh:    func(v int) Weight { return Weight{Cost: float64(v), Bytes: 8} },
		Disk:     disk,
	}, 4)
	// Capacity 4 over 4 shards = 1 per shard: any two keys on the same
	// shard force an eviction.
	for i := 0; i < 32; i++ {
		s.add(fmt.Sprintf("k%d", i), i+1)
	}
	disk.Flush()
	if disk.Len()+s.Len() != 32 {
		t.Fatalf("%d evicted + %d resident != 32 inserted", disk.Len(), s.Len())
	}
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("k%d", i)
		if payload, cost, ok := disk.Get(k); ok && (string(payload) != fmt.Sprint(i+1) || cost != float64(i+1)) {
			t.Errorf("evicted %s spilled (%s, cost %v), want (%d, the Weigh-sampled cost %d)", k, payload, cost, i+1, i+1)
		}
	}
	for _, e := range s.entries() {
		if e.w.Bytes != 8 || e.w.Cost < 1 {
			t.Errorf("resident %s carries weight %+v, want the Weigh-sampled one", e.key, e.w)
		}
	}
}

// TestShardedConcurrentStorm is the -race workout: every operation the
// service performs, hammered across shards by goroutines. Run with
// -race; the assertions only pin that nothing is lost or duplicated.
func TestShardedConcurrentStorm(t *testing.T) {
	s := newStore(Options[int]{
		Capacity: 128,
		Weigh:    func(v int) Weight { return Weight{Cost: 1, Bytes: 1} },
	}, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := uint64(seed)*2654435761 + 1
			for i := 0; i < 2000; i++ {
				r ^= r << 13
				r ^= r >> 7
				r ^= r << 17
				k := fmt.Sprintf("k%d", r%256)
				switch r % 4 {
				case 0:
					s.add(k, int(r%1000))
				case 1:
					s.Contains(k)
				case 2:
					s.Len()
				default:
					v, _, err := s.GetOrCompute(k, func() (int, error) { return int(r % 1000), nil })
					if err != nil || v < 0 || v >= 1000 {
						t.Errorf("GetOrCompute(%s) = (%d, %v)", k, v, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := s.Len(); n > 128 {
		// The capacity split is exact: never above the request.
		t.Errorf("storm left %d resident entries, capacity bound is %d", n, 128)
	}
	seen := map[string]bool{}
	for _, e := range s.entries() {
		if seen[e.key] {
			t.Errorf("key %s resident in two shards", e.key)
		}
		seen[e.key] = true
	}
}

// TestShardedEntriesShardOrder: the store lists shards in index order
// and per-shard LRU order, the order SpillAll walks.
func TestShardedEntriesShardOrder(t *testing.T) {
	s := newStore(Options[int]{Capacity: 64}, 4)
	var keys []string
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("k%d", i)
		keys = append(keys, k)
		s.add(k, i)
	}
	var got []string
	lastShard := uint64(0)
	for _, e := range s.entries() {
		sh := shardIndex(e.key, s.mask)
		if sh < lastShard {
			t.Fatalf("entry %s from shard %d appeared after shard %d", e.key, sh, lastShard)
		}
		lastShard = sh
		got = append(got, e.key)
	}
	sort.Strings(got)
	sort.Strings(keys)
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("Entries lost or invented keys: %v vs %v", got, keys)
		}
	}
}

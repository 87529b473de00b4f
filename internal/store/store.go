package store

import (
	"encoding/json"
	"runtime"
)

// Tier labels where a GetOrCompute result was served from.
type Tier int

const (
	// TierMiss: the value was computed fresh (not a hit).
	TierMiss Tier = iota
	// TierMem: served by the memory tier (including joining another
	// caller's in-flight computation).
	TierMem
	// TierDisk: read from the spill tier and promoted into memory.
	TierDisk
)

func (t Tier) String() string {
	switch t {
	case TierMem:
		return "mem"
	case TierDisk:
		return "disk"
	default:
		return "miss"
	}
}

// Options configures a Store.
type Options[V any] struct {
	// Capacity bounds memory-resident entries across all shards
	// (values < 1 become 1).
	Capacity int
	// Weigh returns an entry's eviction weight, sampled once at insert.
	// nil means every entry weighs the same, which makes eviction exact
	// LRU within a shard.
	Weigh func(V) Weight
	// Disk is the spill tier; the Store takes ownership of closing it.
	// nil means memory-only: evictions discard. Values spill as their
	// JSON encoding, so V must round-trip through encoding/json.
	Disk *Disk
	// OnHit observes each hit with the tier that served it; OnMiss
	// observes each successful fresh computation. Failed computations
	// observe neither. Both may be nil.
	OnHit  func(Tier)
	OnMiss func()
}

// Store is the two-tier content-addressed result store: a memory tier
// split into hash-addressed shards over an optional disk spill tier.
// All methods are safe for concurrent use.
type Store[V any] struct {
	opt    Options[V]
	shards []*shard[V]
	mask   uint64
}

// New builds an empty store with 2 x GOMAXPROCS shards, rounded up to
// a power of two: enough that under full parallelism two hot keys
// rarely share a lock.
func New[V any](opt Options[V]) *Store[V] { return newStore(opt, 0) }

// newStore builds a store with the given shard count (<= 0 picks the
// default), rounded up to a power of two and then halved until every
// shard holds at least one entry. Capacity is split so the per-shard
// capacities sum to exactly Capacity.
func newStore[V any](opt Options[V], shards int) *Store[V] {
	opt.Capacity = max(opt.Capacity, 1)
	if shards <= 0 {
		shards = 2 * runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	for n > opt.Capacity {
		n >>= 1
	}
	s := &Store[V]{opt: opt, shards: make([]*shard[V], n), mask: uint64(n - 1)}
	for i := range s.shards {
		per := opt.Capacity / n
		if i < opt.Capacity%n {
			per++
		}
		s.shards[i] = newShard(per, opt.Weigh)
	}
	return s
}

// shardIndex hashes key with FNV-1a 64 and folds the high bits in, so
// the low mask bits see the whole hash. The hash is deterministic
// across processes: a key meets the same shard's eviction decisions
// after a restart.
func shardIndex(key string, mask uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return (h ^ h>>32) & mask
}

func (s *Store[V]) shardFor(key string) *shard[V] {
	return s.shards[shardIndex(key, s.mask)]
}

// GetOrCompute returns the value for key and the tier that served it:
// TierMem for a memory hit (or a joined in-flight computation),
// TierDisk for a spill hit promoted back into memory, TierMiss for a
// fresh computation by fn. Concurrent callers for one key coalesce in
// the key's shard, so a spilled key is read off disk once per burst.
// Errors are not cached, and a panic in fn surfaces as *PanicError.
func (s *Store[V]) GetOrCompute(key string, fn func() (V, error)) (V, Tier, error) {
	// fromDisk is only written inside the compute closure, which the
	// shard runs at most once per miss (coalesced callers never enter
	// it), and is read only after the shard call returns.
	fromDisk := false
	val, hit, evicted, err := s.shardFor(key).getOrCompute(key, func() (V, error) {
		if v, ok := s.load(key); ok {
			fromDisk = true
			return v, nil
		}
		return fn()
	})
	for _, e := range evicted {
		s.spill(e)
	}
	if err != nil {
		return val, TierMiss, err
	}
	tier := TierMiss
	switch {
	case hit:
		tier = TierMem
	case fromDisk:
		tier = TierDisk
	}
	if tier == TierMiss {
		if s.opt.OnMiss != nil {
			s.opt.OnMiss()
		}
	} else if s.opt.OnHit != nil {
		s.opt.OnHit(tier)
	}
	return val, tier, nil
}

// load reads key through from the spill tier.
func (s *Store[V]) load(key string) (V, bool) {
	var v V
	if s.opt.Disk == nil {
		return v, false
	}
	payload, _, ok := s.opt.Disk.Get(key)
	if !ok {
		return v, false
	}
	if err := json.Unmarshal(payload, &v); err != nil {
		// Undecodable payload: stale schema or silent damage. Drop it
		// and recompute.
		s.opt.Disk.Remove(key)
		var zero V
		return zero, false
	}
	return v, true
}

// spill enqueues an entry on the disk write-behind queue and reports
// whether it did. Entries already on disk (typically promoted then
// evicted again, value unchanged) are skipped; unencodable values fall
// out of the store as they would without a spill tier.
func (s *Store[V]) spill(e entry[V]) bool {
	if s.opt.Disk == nil || s.opt.Disk.Contains(e.key) {
		return false
	}
	payload, err := json.Marshal(e.val)
	if err != nil {
		return false
	}
	s.opt.Disk.Put(e.key, payload, e.w.Cost)
	return true
}

// Contains reports whether key is resident in either tier, without
// promotion, recency updates, or disk reads. Admission control uses it
// to price spilled repeat work as near-zero.
func (s *Store[V]) Contains(key string) bool {
	if _, ok := s.shardFor(key).peek(key); ok {
		return true
	}
	return s.opt.Disk != nil && s.opt.Disk.Contains(key)
}

// Len reports memory-resident entries.
func (s *Store[V]) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.len()
	}
	return n
}

// DiskLen reports landed spill entries (0 without a disk tier).
func (s *Store[V]) DiskLen() int {
	if s.opt.Disk == nil {
		return 0
	}
	return s.opt.Disk.Len()
}

// spillAllChunk bounds how many spill writes SpillAll enqueues between
// Flushes, so a shutdown spill of a large store never overflows the
// write-behind queue (which would silently drop the oldest entries).
const spillAllChunk = 64

// SpillAll writes every memory-resident entry not already on disk to
// the spill tier and waits for them to land. Service shutdown calls it
// so a restart finds the whole working set warm, not just what
// happened to be evicted.
func (s *Store[V]) SpillAll() {
	if s.opt.Disk == nil {
		return
	}
	chunk := min(spillAllChunk, s.opt.Disk.opt.queueLen)
	n := 0
	for _, sh := range s.shards {
		for _, e := range sh.entries() {
			if !s.spill(e) {
				continue
			}
			if n++; n%chunk == 0 {
				s.opt.Disk.Flush()
			}
		}
	}
	s.opt.Disk.Flush()
}

// Close drains and stops the disk tier. It does not spill resident
// memory entries — call SpillAll first when warmth should survive the
// restart.
func (s *Store[V]) Close() {
	if s.opt.Disk != nil {
		s.opt.Disk.Close()
	}
}

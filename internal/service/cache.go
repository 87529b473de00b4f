package service

import (
	"encoding/json"

	"valleymap/internal/cache"
)

// Both service caches are instances of the generic content-addressed
// sharded LRU with in-flight request coalescing (internal/cache); keys
// encode the input identity plus every option that affects the result.

// profileCache is the entropy-profile cache (content-addressed by trace
// identity + analysis options). Profiles all cost roughly the same to
// recompute per byte held, so it keeps exact LRU eviction (no weigher)
// and no spill tier — a profile is one streaming pass, not minutes of
// simulation.
type profileCache = cache.Sharded[*ProfileResult]

func newProfileCache(capacity int, m *Metrics) *profileCache {
	c := cache.NewSharded(cache.ShardedOptions[*ProfileResult]{
		Capacity: capacity,
		OnHit:    m.CacheHit,
		OnMiss:   m.CacheMiss,
	})
	m.cacheLen = c.Len
	return c
}

// simCache holds finished simulation cells keyed by the full cell
// coordinates (workload, scale, scheme, config, seed). Entries are the
// flattened metric set; sweep-relative fields (speedup, wall time) are
// recomputed per sweep.
//
// Unlike profiles, sweep cells differ in recompute cost by orders of
// magnitude (a full-scale 3D sweep cell vs a tiny BASE cell), so the
// cache evicts cost-aware — each cell carries its measured simulation
// seconds as weight — and, when a spill directory is configured,
// eviction spills to disk instead of discarding: seconds-to-minutes of
// simulation survive both memory pressure and restarts.
type simCache = cache.Tiered[*simCell]

// simCellBytes approximates a resident cell's footprint: the flattened
// metric struct plus key and bookkeeping. Cells are near-constant size,
// so Cost/Bytes ordering is dominated by the measured seconds.
const simCellBytes = 512

// newSimCache builds the tiered simulation-result cache over disk
// (which may be nil for a memory-only cache). Spill payloads are the
// JSON encoding of one simCell.
func newSimCache(capacity int, disk *cache.DiskStore, m *Metrics) *simCache {
	c, err := cache.NewTiered(cache.TieredOptions[*simCell]{
		Capacity: capacity,
		Disk:     disk,
		Encode:   func(c *simCell) ([]byte, error) { return json.Marshal(c) },
		Decode: func(p []byte) (*simCell, error) {
			var c simCell
			if err := json.Unmarshal(p, &c); err != nil {
				return nil, err
			}
			return &c, nil
		},
		Weigh: func(c *simCell) cache.Weight {
			return cache.Weight{Cost: c.Seconds, Bytes: simCellBytes}
		},
		OnHit: func(t cache.Tier) {
			m.SimCacheHit()
			if t == cache.TierDisk {
				m.tierHitsDisk.Add(1)
			} else {
				m.tierHitsMem.Add(1)
			}
		},
		OnMiss: m.SimCacheMiss,
	})
	if err != nil {
		// Encode/Decode are set above; the only error is a programming
		// mistake, not a runtime condition.
		panic(err)
	}
	m.simCacheLen = c.MemLen
	if disk != nil {
		m.spillEntries = disk.Len
		m.spillBytes = disk.Bytes
	}
	return c
}

// newSpillStore opens the spill directory with the service's metrics
// wired to the store's observers.
func newSpillStore(dir string, maxBytes int64, m *Metrics) (*cache.DiskStore, error) {
	return cache.OpenDisk(cache.DiskOptions{
		Dir:         dir,
		MaxBytes:    maxBytes,
		OnWrite:     func() { m.spillWrites.Add(1) },
		OnWriteDrop: func() { m.spillWriteDrops.Add(1) },
		OnEvict:     func() { m.spillEvictions.Add(1) },
		OnError:     func() { m.spillErrors.Add(1) },
	})
}

package service

import "valleymap/internal/store"

// Both service caches are instances of the content-addressed result
// store (internal/store); keys encode the input identity plus every
// option that affects the result.

// profileCache is the entropy-profile cache (content-addressed by trace
// identity + analysis options). Profiles all cost roughly the same to
// recompute per byte held, so it keeps exact LRU eviction (no weigher)
// and no spill tier — a profile is one streaming pass, not minutes of
// simulation.
type profileCache = store.Store[*ProfileResult]

func newProfileCache(capacity int, m *Metrics) *profileCache {
	c := store.New(store.Options[*ProfileResult]{
		Capacity: capacity,
		OnHit:    func(store.Tier) { m.profileHits.Inc() },
		OnMiss:   m.profileMisses.Inc,
	})
	addGauge(m, "valleyd_profile_cache_entries", "Resident profile-cache entries.", c.Len)
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
// eviction spills the cell's JSON encoding to disk instead of
// discarding it: seconds-to-minutes of simulation survive both memory
// pressure and restarts.
type simCache = store.Store[*simCell]

// simCellBytes approximates a resident cell's footprint: the flattened
// metric struct plus key and bookkeeping. Cells are near-constant size,
// so Cost/Bytes ordering is dominated by the measured seconds.
const simCellBytes = 512

// newSimCache builds the tiered simulation-result cache over disk
// (which may be nil for a memory-only cache).
func newSimCache(capacity int, disk *store.Disk, m *Metrics) *simCache {
	c := store.New(store.Options[*simCell]{
		Capacity: capacity,
		Disk:     disk,
		Weigh: func(c *simCell) store.Weight {
			return store.Weight{Cost: c.Seconds, Bytes: simCellBytes}
		},
		OnHit: func(t store.Tier) {
			m.simHits.Inc()
			if t == store.TierDisk {
				m.tierDisk.Inc()
			} else {
				m.tierMem.Inc()
			}
		},
		OnMiss: m.simMisses.Inc,
	})
	addGauge(m, "valleyd_sim_cache_entries", "Resident simulation-result cache entries.", c.Len)
	if disk != nil {
		addGauge(m, "valleyd_cache_spill_entries", "Entry files resident in the spill directory.", disk.Len)
		addGauge(m, "valleyd_cache_spill_bytes", "Bytes resident in the spill directory.", disk.Bytes)
	}
	return c
}

// newSpillStore opens the spill directory with the service's metrics
// wired to the store's observers.
func newSpillStore(dir string, maxBytes int64, m *Metrics) (*store.Disk, error) {
	return store.OpenDisk(store.DiskOptions{
		Dir:         dir,
		MaxBytes:    maxBytes,
		OnWrite:     m.spillWrites.Inc,
		OnWriteDrop: m.spillWriteDrops.Inc,
		OnEvict:     m.spillEvictions.Inc,
		OnError:     m.spillErrors.Inc,
	})
}

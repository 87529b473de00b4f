// Package store is the two-tier content-addressed result store behind
// valleyd's profile and simulation caches. One type, Store[V], holds
// both tiers:
//
//	memory  (shard.go)  N hash-addressed shards (N = 2 x GOMAXPROCS
//	                    rounded up to a power of two, capped so every
//	                    shard holds an entry), each a single-lock
//	                    cost-aware LRU with in-flight coalescing and
//	                    *PanicError recovery
//	disk    (disk.go)   optional spill tier: one checksummed file per
//	                    entry, async write-behind, byte-budget janitor
//
// Keys encode the input identity plus every option that affects the
// result; a key's shard is a pure function of its bytes. Capacity is
// split so the shards together hold at most Capacity entries.
//
// # Two-tier contract
//
// Promotion: a memory miss reads through to disk inside the shard's
// singleflight, so one burst of lookups for a spilled key performs one
// disk read, and the decoded value is immediately resident in memory
// again (a TierDisk hit). Capacity evictions flow the other way:
// instead of discarding, the evicted entry is JSON-encoded and
// enqueued for spilling. Between the two, a key's value migrates but
// is never in neither tier while it is still wanted.
//
// Write-behind ordering: Disk.Put makes an entry readable the moment
// it is accepted — Get and Contains consult the pending queue before
// the on-disk index — so the asynchronous write is never a visibility
// gap. The queue is bounded; on overflow the oldest pending write is
// dropped and counted. A drop loses warmth (that key reverts to a miss
// and recomputes), never correctness.
//
// Crash semantics: every entry file is written to a temp file and
// atomically renamed into place, and carries a SHA-256 over its framed
// bytes ("VSPILL01" magic, key and payload lengths, cost, key,
// payload). After a crash the directory holds only complete old files,
// complete new files, and possibly torn temp or torn renamed files;
// opening the store re-scans the fan-out directories, validates every
// entry, and deletes anything damaged. At read time a failed checksum,
// a wrong key (digest collision or foreign file), a read error or an
// undecodable payload deletes the entry and reads as a miss. The store
// may forget, never lies: no damage mode surfaces as an error to a
// caller, and none can serve corrupt bytes as a result.
package store

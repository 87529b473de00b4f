// Package cache models the set-associative, write-back,
// write-allocate caches of the simulated GPU (Table I): the per-SM L1
// data caches and the LLC slices. Each Cache is a deterministic
// single-threaded model owned by one simulator component; it tracks
// tags, LRU order and dirty bits, and reports hits, misses and dirty
// victims so the caller can schedule the memory traffic they imply.
// Outstanding misses are tracked by the SM itself (internal/gpu), not
// here. valleyd's result store lives in internal/store.
package cache

// Package sim provides a small deterministic discrete-event simulation
// kernel: a picosecond-resolution clock, a pooled-event queue with
// monotone event lanes, single-server resources, and time-weighted
// statistics integrators. The whole GPU memory-subsystem model is built
// on this engine.
//
// # Scheduling
//
// There is one scheduling API: AtCall(t, h, arg) and its relative twin
// ScheduleCall(d, h, arg). h is a long-lived Handler (typically a
// package-level function) and arg a pointer to per-request state,
// usually itself pooled by the caller. Direct events live in a slab of
// recycled records behind a 4-ary min-heap whose entries carry their
// (time, sequence) keys inline, so sifts never leave the heap array;
// scheduling pops a slot off a free list and firing pushes it back, so
// steady-state event churn performs zero allocations.
//
// # Lanes
//
// A Lane (Engine.NewLane) is a FIFO for events whose times never
// decrease in push order: the completions of one pipelined resource,
// such as a Server's grant times plus a fixed latency. Only the lane's
// head sits in the heap; the rest wait in fixed-size chunks drawn from
// one engine-wide free list that Reset keeps. The substrate models
// (gpu, noc, dram, gpusim) route every Server-derived completion — LSU
// grants, crossbar arrivals, LLC resolves, DRAM bursts — through a lane
// per resource, which keeps the heap at roughly one entry per resource,
// warp and bank instead of one per queued transaction. Bank kicks and
// warp advances, at most one in flight per bank or warp, stay direct.
//
// BenchmarkEngineChurn, BenchmarkEngineFanout and BenchmarkEngineLane
// pin allocs/op at zero, and CI fails if any of them regresses.
//
// # Determinism contract
//
// Every scheduled event, direct or lane, draws a monotone sequence
// number when it is scheduled, and events fire in (time, sequence)
// order: events scheduled for the same instant fire in scheduling
// order. A lane keeps that order intact because its events are already
// sorted by key — their times never decrease and their sequence
// numbers increase in push order — so the head is the lane's minimum,
// and promoting the next event when the head fires yields exactly the
// order that scheduling every event directly would; Lane.AtCall panics
// rather than accept a time that would break this. Pooling does not
// affect the order either: record recycling changes where an event is
// stored, never its key, and no model behavior depends on object
// identity. Consequently a simulation is a pure function of its inputs:
// identical (trace, mapping, config) produce byte-identical results,
// whether the engine is freshly zero-valued, Reset() for reuse, or
// handed recycled pool objects. The gpusim determinism regression tests
// pin all three cases, and TestGridDigest pins the whole small-scale
// figure grid.
package sim

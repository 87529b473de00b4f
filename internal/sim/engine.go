package sim

import (
	"fmt"
)

// Time is a simulation timestamp or duration in picoseconds.
//
// Picosecond resolution lets the three clock domains of the modeled GPU
// (1.4 GHz core, 924 MHz DRAM command clock, 700 MHz NoC) coexist on one
// integer clock without rounding drift.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds converts t to floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Clock describes a periodic clock domain and converts cycle counts to
// simulation time.
type Clock struct {
	// Period is the duration of one cycle.
	Period Time
}

// ClockFromMHz builds a Clock for the given frequency in MHz.
// The period is rounded to the nearest picosecond.
func ClockFromMHz(mhz float64) Clock {
	return Clock{Period: Time(1e6/mhz + 0.5)}
}

// Cycles converts a cycle count in this domain to a duration.
func (c Clock) Cycles(n int64) Time { return Time(n) * c.Period }

// ToCycles converts a duration to (possibly fractional) cycles.
func (c Clock) ToCycles(t Time) float64 { return float64(t) / float64(c.Period) }

// Handler is a pooled-event callback. Pairing a package-level function
// (or any long-lived func value) with a pointer-shaped arg schedules
// with zero allocation: both slot directly into the engine's recycled
// event records.
type Handler func(arg any)

// call is a scheduled callback. Direct events keep theirs in the
// engine's slab, recycled through a free list, while their keys live
// in the heap.
type call struct {
	h   Handler
	arg any
}

// heapEnt is one 4-ary heap entry. The (at, seq) key sits inline so
// sifts compare without touching the records; ref >= 0 is a slab index,
// ref < 0 names lane ^ref, whose head event the entry stands for.
type heapEnt struct {
	at  Time
	seq uint64
	ref int32
}

// Stats are the engine's run counters, zeroed by Reset.
type Stats struct {
	// Events is the number of events fired.
	Events uint64
	// HeapHighWater is the largest number of heap entries at once.
	HeapHighWater int
	// PendingHighWater is the largest number of scheduled-but-unfired
	// events at once, counting events queued behind lane heads.
	PendingHighWater int
}

// Engine is a discrete-event simulator. The zero value is ready to use.
//
// Events are ordered by (time, schedule sequence) in a 4-ary min-heap:
// events scheduled for the same instant fire in scheduling order, which
// makes simulations reproducible run to run — see doc.go for the full
// determinism contract. Lanes (NewLane) hold monotone event streams
// with only their head in the heap.
type Engine struct {
	now     Time
	seq     uint64
	pending int
	stats   Stats
	slab    []call
	free    []int32 // recycled slab slots (LIFO)
	heap    []heapEnt

	lanes     []*Lane // lanes[:nlanes] are live; the rest are pooled
	nlanes    int
	chunkFree *laneChunk // recycled lane chunks, linked through next
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events executed so far.
func (e *Engine) Events() uint64 { return e.stats.Events }

// Pending returns the number of scheduled-but-unfired events, including
// those queued in lanes behind their heads.
func (e *Engine) Pending() int { return e.pending }

// Stats returns the engine's counters since the last Reset.
func (e *Engine) Stats() Stats { return e.stats }

// ScheduleCall runs h(arg) after delay. A negative delay panics: the
// engine cannot rewrite history.
func (e *Engine) ScheduleCall(delay Time, h Handler, arg any) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.AtCall(e.now+delay, h, arg)
}

// AtCall runs h(arg) at absolute time t (>= Now). With a long-lived h
// and a pooled arg nothing here allocates: the event record comes from
// the engine's free list and returns to it when the event fires.
func (e *Engine) AtCall(t Time, h Handler, arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.seq++
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		idx = int32(len(e.slab))
		e.slab = append(e.slab, call{})
	}
	e.slab[idx] = call{h, arg}
	e.addPending()
	e.push(heapEnt{at: t, seq: e.seq, ref: idx})
}

func (e *Engine) addPending() {
	e.pending++
	if e.pending > e.stats.PendingHighWater {
		e.stats.PendingHighWater = e.pending
	}
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() Time {
	for len(e.heap) > 0 {
		e.step()
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline. It returns true if
// the queue drained, false if the deadline was hit first. Time advances to
// min(deadline, last event time).
func (e *Engine) RunUntil(deadline Time) bool {
	for len(e.heap) > 0 {
		if e.heap[0].at > deadline {
			e.now = deadline
			return false
		}
		e.step()
	}
	return true
}

// RunBounded executes at most maxEvents events. It returns true if the
// queue drained, false if the budget ran out first. Callers use it as a
// cancellation checkpoint: run a bounded batch, poll for cancellation,
// repeat. A non-positive budget executes nothing and reports whether the
// queue is already empty.
func (e *Engine) RunBounded(maxEvents int) bool {
	for ; maxEvents > 0 && len(e.heap) > 0; maxEvents-- {
		e.step()
	}
	return len(e.heap) == 0
}

// Reset returns the engine to time zero with an empty queue, keeping
// the slab, free-list, heap and lane-chunk capacity for reuse. Any
// still-pending events are dropped and every lane is released: lanes
// from before the Reset must not be used after it. A Reset engine
// behaves exactly like a zero-value Engine, so a reused engine
// reproduces a fresh engine's run bit for bit (the determinism
// regression tests pin this).
func (e *Engine) Reset() {
	clear(e.slab)
	for _, l := range e.lanes[:e.nlanes] {
		l.release()
	}
	e.slab = e.slab[:0]
	e.free = e.free[:0]
	e.heap = e.heap[:0]
	e.nlanes = 0
	e.now, e.seq, e.pending = 0, 0, 0
	e.stats = Stats{}
}

// step fires the earliest event. A slab slot is recycled before the
// handler runs so the handler's own scheduling can reuse it; a lane's
// next event takes over the fired head's heap entry.
func (e *Engine) step() {
	top := e.heap[0]
	e.now = top.at
	e.pending--
	e.stats.Events++
	var h Handler
	var arg any
	if top.ref >= 0 {
		c := &e.slab[top.ref]
		h, arg = c.h, c.arg
		*c = call{} // drop references so pooled args can be collected
		e.free = append(e.free, top.ref)
		e.popTop()
	} else {
		h, arg = e.lanes[^top.ref].shift()
	}
	h(arg)
}

// less orders heap entries by (time, schedule sequence).
func (a *heapEnt) less(b *heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts an entry into the 4-ary heap. A 4-ary layout halves
// tree depth versus binary, and the inline keys keep each comparison
// inside the heap array.
func (e *Engine) push(ent heapEnt) {
	e.heap = append(e.heap, ent)
	if len(e.heap) > e.stats.HeapHighWater {
		e.stats.HeapHighWater = len(e.heap)
	}
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ent.less(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ent
}

// popTop removes the minimum entry.
func (e *Engine) popTop() {
	last := len(e.heap) - 1
	ent := e.heap[last]
	e.heap = e.heap[:last]
	if last > 0 {
		e.siftDown(ent)
	}
}

// siftDown places ent, which replaces the root, at its heap position.
func (e *Engine) siftDown(ent heapEnt) {
	h := e.heap
	n := len(h)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].less(&h[best]) {
				best = c
			}
		}
		if !h[best].less(&ent) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = ent
}

// Server models a single resource that serves one request at a time in
// arrival order (a next-free-time server). It captures serialization and
// queueing delay at pipelined units such as cache ports, NoC links and
// DRAM data buses without per-cycle simulation.
type Server struct {
	freeAt Time
	busy   Time // cumulative busy time, for utilization
}

// Acquire reserves the server at or after now for the given service time
// and returns the start and completion instants.
func (s *Server) Acquire(now, service Time) (start, done Time) {
	start = now
	if s.freeAt > start {
		start = s.freeAt
	}
	done = start + service
	s.freeAt = done
	s.busy += service
	return start, done
}

// FreeAt reports when the server next becomes idle.
func (s *Server) FreeAt() Time { return s.freeAt }

// BusyTime reports cumulative service time delivered.
func (s *Server) BusyTime() Time { return s.busy }

// Utilization returns busy time as a fraction of the elapsed horizon.
func (s *Server) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(s.busy) / float64(horizon)
}

package sim

import "fmt"

// laneChunkLen is the number of events one lane chunk holds, and
// chunkBlock the number of chunks the engine allocates at a time.
const (
	laneChunkLen = 16
	chunkBlock   = 16
)

// laneEvent is one event queued in a lane: the key it drew when it was
// scheduled, and its callback.
type laneEvent struct {
	at  Time
	seq uint64
	call
}

// laneChunk is a fixed-size block of lane storage. Chunks come from the
// engine's free list, are linked head to tail within a lane, and return
// to the free list as a lane drains past them or at Reset.
type laneChunk struct {
	ev   [laneChunkLen]laneEvent
	next *laneChunk
}

// Lane is a FIFO of events whose times never decrease in push order —
// the completion stream of one pipelined resource, such as a sim.Server
// grant time plus a fixed latency. Only the lane's head sits in the
// engine heap, so a resource with thousands of queued completions
// costs the heap one entry.
//
// Each queued event keeps the (time, sequence) key it drew when it was
// scheduled. Because a lane's events are already in key order, firing
// the head and promoting the next one reproduces exactly the order that
// scheduling every event directly with AtCall would give.
type Lane struct {
	eng        *Engine
	id         int32
	head, tail *laneChunk
	hi, ti     int // read index in head, write index in tail
	n          int // queued events, head included
	last       Time
}

// NewLane returns an empty lane on e. Lanes are pooled by the engine:
// Reset releases every lane, and a lane must not be used after it.
func (e *Engine) NewLane() *Lane {
	if e.nlanes == len(e.lanes) {
		e.lanes = append(e.lanes, &Lane{eng: e, id: int32(e.nlanes)})
	}
	l := e.lanes[e.nlanes]
	e.nlanes++
	return l
}

// AtCall runs h(arg) at absolute time t, behind every event already in
// the lane. t must be >= Now and >= the time of the lane's previous
// push; otherwise AtCall panics, because firing order would no longer
// match direct scheduling.
func (l *Lane) AtCall(t Time, h Handler, arg any) {
	e := l.eng
	if t < e.now {
		panic(fmt.Sprintf("sim: lane schedule at %v before now %v", t, e.now))
	}
	if t < l.last {
		panic(fmt.Sprintf("sim: lane schedule at %v before its previous event at %v", t, l.last))
	}
	l.last = t
	e.seq++
	if l.tail == nil {
		l.head = e.getChunk()
		l.tail = l.head
	} else if l.ti == laneChunkLen {
		c := e.getChunk()
		l.tail.next = c
		l.tail = c
		l.ti = 0
	}
	l.tail.ev[l.ti] = laneEvent{t, e.seq, call{h, arg}}
	l.ti++
	e.addPending()
	if l.n == 0 {
		e.push(heapEnt{at: t, seq: e.seq, ref: ^l.id})
	}
	l.n++
}

// shift removes the lane's head event, which the engine is firing, and
// returns its callback. The next event, if any, takes over the root
// heap entry; an emptied lane gives its entry up.
func (l *Lane) shift() (Handler, any) {
	e := l.eng
	ev := &l.head.ev[l.hi]
	h, arg := ev.h, ev.arg
	ev.call = call{}
	l.hi++
	l.n--
	if l.n == 0 {
		// head == tail here; keep the chunk and rewind it.
		l.hi, l.ti = 0, 0
		e.popTop()
		return h, arg
	}
	if l.hi == laneChunkLen {
		c := l.head
		l.head = c.next
		l.hi = 0
		e.putChunk(c)
	}
	next := &l.head.ev[l.hi]
	e.siftDown(heapEnt{at: next.at, seq: next.seq, ref: ^l.id})
	return h, arg
}

// release drops the lane's queued events and returns its chunks to the
// engine, leaving the lane empty for reuse by NewLane.
func (l *Lane) release() {
	c, i := l.head, l.hi
	for k := 0; k < l.n; k++ {
		if i == laneChunkLen {
			c, i = c.next, 0
		}
		c.ev[i].call = call{}
		i++
	}
	for c := l.head; c != nil; {
		next := c.next
		l.eng.putChunk(c)
		c = next
	}
	l.head, l.tail = nil, nil
	l.hi, l.ti, l.n, l.last = 0, 0, 0, 0
}

func (e *Engine) getChunk() *laneChunk {
	if e.chunkFree == nil {
		// Fixed-size blocks cut allocations per chunk by chunkBlock
		// without the up-to-2x overshoot of geometric growth, which
		// showed in peak RSS.
		block := make([]laneChunk, chunkBlock)
		for i := range block {
			e.putChunk(&block[i])
		}
	}
	c := e.chunkFree
	e.chunkFree = c.next
	c.next = nil
	return c
}

func (e *Engine) putChunk(c *laneChunk) {
	c.next = e.chunkFree
	e.chunkFree = c
}

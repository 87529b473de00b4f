package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// laneProg is a randomized event program. Every fired event records
// its id and time and may schedule children, each aimed either at no
// resource or at one of several monotone resources (the lanes). With
// useLanes false every event is scheduled directly, so two runs of the
// same seed differ only in how the engine holds the events.
type laneProg struct {
	e        *Engine
	rng      *rand.Rand
	useLanes bool
	lanes    []*Lane
	last     []Time // per-resource latest time, tracked in both modes
	budget   int
	nextID   int
	fired    []firing
}

type firing struct {
	id int
	at Time
}

func newLaneProg(e *Engine, seed int64, nLanes, budget int, useLanes bool) *laneProg {
	p := &laneProg{e: e, rng: rand.New(rand.NewSource(seed)), useLanes: useLanes, last: make([]Time, nLanes), budget: budget}
	if useLanes {
		for i := 0; i < nLanes; i++ {
			p.lanes = append(p.lanes, e.NewLane())
		}
	}
	return p
}

// spawn schedules one event. Small delays make same-instant ties common.
func (p *laneProg) spawn() {
	if p.budget == 0 {
		return
	}
	p.budget--
	id := p.nextID
	p.nextID++
	h := func(any) {
		p.fired = append(p.fired, firing{id, p.e.Now()})
		for n := p.rng.Intn(4); n > 0; n-- {
			p.spawn()
		}
	}
	k := p.rng.Intn(len(p.last) + 1)
	if k == len(p.last) {
		p.e.AtCall(p.e.Now()+Time(p.rng.Intn(5)), h, nil)
		return
	}
	t := p.last[k]
	if now := p.e.Now(); t < now {
		t = now
	}
	t += Time(p.rng.Intn(3))
	p.last[k] = t
	if p.useLanes {
		p.lanes[k].AtCall(t, h, nil)
	} else {
		p.e.AtCall(t, h, nil)
	}
}

func (p *laneProg) run() []firing {
	for i := 0; i < 8; i++ {
		p.spawn()
	}
	p.e.Run()
	return p.fired
}

// TestLaneOrderMatchesDirect is the lane determinism property: a random
// mix of direct and lane scheduling — same-instant ties, handlers that
// schedule from inside a handler, several lanes — fires in exactly the
// order all-direct scheduling gives, at the same times.
func TestLaneOrderMatchesDirect(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		var direct, mixed Engine
		want := newLaneProg(&direct, seed, 4, 2000, false).run()
		got := newLaneProg(&mixed, seed, 4, 2000, true).run()
		if len(want) < 100 {
			t.Fatalf("seed %d: program fired only %d events", seed, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Fatalf("seed %d: firing %d differs: lanes %v, direct %v", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: lanes fired %d events, direct %d", seed, len(got), len(want))
		}
		if mixed.Events() != direct.Events() || mixed.Now() != direct.Now() {
			t.Fatalf("seed %d: events/now %d/%v with lanes, %d/%v direct", seed, mixed.Events(), mixed.Now(), direct.Events(), direct.Now())
		}
		if ms, ds := mixed.Stats(), direct.Stats(); ms.PendingHighWater != ds.PendingHighWater || ms.HeapHighWater > ds.HeapHighWater {
			t.Fatalf("seed %d: stats with lanes %+v, direct %+v", seed, ms, ds)
		}
	}
}

func expectPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic: %s", what)
		}
	}()
	f()
}

func TestLaneDecreasingTimePanics(t *testing.T) {
	var e Engine
	l := e.NewLane()
	nop := func(any) {}
	l.AtCall(20, nop, nil)
	l.AtCall(20, nop, nil) // equal times are fine
	expectPanic(t, "lane push below the lane's last time", func() { l.AtCall(19, nop, nil) })

	// The lane's last time holds even after it drains.
	e.Run()
	expectPanic(t, "lane push below a drained lane's last time", func() { l.AtCall(e.Now()-1, nop, nil) })

	var e2 Engine
	l2 := e2.NewLane()
	e2.AtCall(50, func(any) {
		expectPanic(t, "lane push before Now", func() { l2.AtCall(40, nop, nil) })
	}, nil)
	e2.Run()
}

// TestLaneResetReproducesFreshEngine: Reset with events still queued in
// lanes (spanning several chunks) drops them, and the reused engine
// then runs a program exactly like a zero-value engine.
func TestLaneResetReproducesFreshEngine(t *testing.T) {
	var fresh Engine
	want := newLaneProg(&fresh, 7, 3, 3000, true).run()
	wantStats := fresh.Stats()

	var reused Engine
	dropped := 0
	l := reused.NewLane()
	for i := 0; i < 3*laneChunkLen+5; i++ {
		l.AtCall(Time(i), func(any) { dropped++ }, nil)
	}
	reused.AtCall(1000, func(any) { dropped++ }, nil)
	reused.RunBounded(laneChunkLen + 3) // leave the lane mid-chunk
	fired := dropped
	reused.Reset()
	if reused.Now() != 0 || reused.Pending() != 0 || reused.Events() != 0 || reused.Stats() != (Stats{}) {
		t.Fatalf("Reset left state: now=%v pending=%d stats=%+v", reused.Now(), reused.Pending(), reused.Stats())
	}
	got := newLaneProg(&reused, 7, 3, 3000, true).run()
	if dropped != fired {
		t.Fatalf("%d events queued before Reset fired after it", dropped-fired)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reused engine's firing order differs from a fresh engine's")
	}
	if reused.Stats() != wantStats || reused.Now() != fresh.Now() {
		t.Fatalf("reused stats %+v now %v, fresh %+v now %v", reused.Stats(), reused.Now(), wantStats, fresh.Now())
	}
}

// TestLaneRunUntilAndBounded: the run loops stop at lane heads exactly
// as they do at direct events.
func TestLaneRunUntilAndBounded(t *testing.T) {
	var e Engine
	l := e.NewLane()
	fired := 0
	for i := 1; i <= 10; i++ {
		l.AtCall(Time(i)*10, func(any) { fired++ }, nil)
	}
	if e.RunUntil(45) {
		t.Fatal("RunUntil(45) reported drained")
	}
	if fired != 4 || e.Now() != 45 || e.Pending() != 6 {
		t.Fatalf("after RunUntil(45): fired=%d now=%v pending=%d, want 4 45 6", fired, e.Now(), e.Pending())
	}
	if e.RunUntil(49) || fired != 4 {
		t.Fatalf("RunUntil(49) fired past the head at 50 (fired=%d)", fired)
	}
	if e.RunBounded(3) {
		t.Fatal("RunBounded(3) reported drained")
	}
	if fired != 7 || e.Now() != 70 || e.Pending() != 3 {
		t.Fatalf("after RunBounded(3): fired=%d now=%v pending=%d, want 7 70 3", fired, e.Now(), e.Pending())
	}
	if !e.RunBounded(3) || fired != 10 || e.Pending() != 0 {
		t.Fatalf("RunBounded(3) should drain the last 3: fired=%d pending=%d", fired, e.Pending())
	}
}

// TestPendingCountsLaneEvents: Pending and the high-water counters see
// events queued behind a lane head, while the heap holds only the head.
func TestPendingCountsLaneEvents(t *testing.T) {
	var e Engine
	l := e.NewLane()
	nop := func(any) {}
	for i := 0; i < 5; i++ {
		l.AtCall(Time(10+i), nop, nil)
	}
	e.AtCall(3, nop, nil)
	e.AtCall(30, nop, nil)
	if e.Pending() != 7 {
		t.Fatalf("Pending=%d, want 7", e.Pending())
	}
	e.Run()
	st := e.Stats()
	if e.Pending() != 0 || st.Events != 7 || st.HeapHighWater != 3 || st.PendingHighWater != 7 {
		t.Fatalf("after Run: pending=%d stats=%+v, want 0 {7 3 7}", e.Pending(), st)
	}
}

// TestLaneScheduleZeroAlloc: once the chunk pool has grown to the lane's
// peak depth, lane churn allocates nothing, across Resets too.
func TestLaneScheduleZeroAlloc(t *testing.T) {
	var e Engine
	ping := func(any) {}
	burst := func() {
		l := e.NewLane()
		for i := 0; i < 3*laneChunkLen; i++ {
			l.AtCall(Time(i/2), ping, nil)
		}
		e.Run()
		e.Reset()
	}
	burst()
	if avg := testing.AllocsPerRun(50, burst); avg != 0 {
		t.Errorf("steady-state lane scheduling allocates %v per burst, want 0", avg)
	}
}

package sim

import "testing"

// TestHandlerScheduleZeroAlloc is the in-repo guard for the pooled
// engine's core guarantee: once the slab has grown to the peak pending
// count, handler-style scheduling and firing allocate nothing. The CI
// benchmark smoke job additionally asserts 0 allocs/op on
// BenchmarkEngineChurn, but this test catches regressions in every
// plain `go test` run.
func TestHandlerScheduleZeroAlloc(t *testing.T) {
	var e Engine
	ping := func(any) {}
	// Warm the slab to steady-state capacity.
	for i := 0; i < 64; i++ {
		e.ScheduleCall(Time(i), ping, nil)
	}
	e.Run()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.ScheduleCall(Time(i%7), ping, nil)
		}
		e.Run()
	})
	if avg != 0 {
		t.Errorf("steady-state scheduling allocates %v allocs per 64-event burst, want 0", avg)
	}
}

// TestResetReproducesFreshEngine pins Reset's contract: a reused engine
// must behave exactly like a zero-value one, including event ordering
// and sequence-number ties.
func TestResetReproducesFreshEngine(t *testing.T) {
	runOnce := func(e *Engine) []int {
		var order []int
		e.ScheduleCall(30, func(any) { order = append(order, 3) }, nil)
		e.ScheduleCall(10, func(any) { order = append(order, 1) }, nil)
		e.ScheduleCall(20, func(any) { order = append(order, 2) }, nil)
		e.ScheduleCall(20, func(any) { order = append(order, 4) }, nil)
		e.Run()
		return order
	}
	var fresh Engine
	want := runOnce(&fresh)

	var reused Engine
	runOnce(&reused)
	reused.Reset()
	if reused.Now() != 0 || reused.Pending() != 0 || reused.Events() != 0 {
		t.Fatalf("Reset left state: now=%v pending=%d events=%d", reused.Now(), reused.Pending(), reused.Events())
	}
	got := runOnce(&reused)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reused order = %v, want %v", got, want)
		}
	}
}

// TestResetDropsPendingEvents: events still queued at Reset must not
// fire afterwards.
func TestResetDropsPendingEvents(t *testing.T) {
	var e Engine
	fired := false
	e.ScheduleCall(10, func(any) { fired = true }, nil)
	e.Reset()
	e.Run()
	if fired {
		t.Error("event scheduled before Reset fired after it")
	}
}

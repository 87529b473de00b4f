package sim

import "testing"

// BenchmarkEngineChurn is the steady-state scheduling microbenchmark:
// one event in flight at a time, each firing schedules the next. This is
// the pattern every substrate model (SM advance, DRAM kick, NoC hop)
// drives the engine with, so its allocs/op is the engine's steady-state
// allocation rate — the CI smoke job asserts it stays at zero.
func BenchmarkEngineChurn(b *testing.B) {
	var e Engine
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	var step Handler
	step = func(arg any) {
		n++
		if n < b.N {
			e.ScheduleCall(1, step, nil)
		}
	}
	e.ScheduleCall(1, step, nil)
	e.Run()
	if n != b.N {
		b.Fatalf("fired %d, want %d", n, b.N)
	}
}

// BenchmarkEngineFanout keeps a deep pending queue (1024 events) to
// exercise heap sift costs under realistic occupancy.
func BenchmarkEngineFanout(b *testing.B) {
	const width = 1024
	var e Engine
	b.ReportAllocs()
	n := 0
	var step Handler
	step = func(arg any) {
		n++
		if n <= b.N {
			// Pseudo-random-ish delays spread events across the heap.
			e.ScheduleCall(Time(1+(n*2654435761)%97), step, nil)
		}
	}
	b.ResetTimer()
	for i := 0; i < width; i++ {
		e.ScheduleCall(Time(1+i%97), step, nil)
	}
	e.Run()
}

// BenchmarkEngineLane is steady-state churn through a deep lane: 1024
// events queued behind one head, each firing pushes one more at the
// lane's tail. This is how a contended resource (an LSU, a NoC port, a
// DRAM bus) drives the engine; chunks recycle through the engine's free
// list, so it must not allocate.
func BenchmarkEngineLane(b *testing.B) {
	const depth = 1024
	var e Engine
	l := e.NewLane()
	b.ReportAllocs()
	n := 0
	tail := Time(0)
	var step Handler
	step = func(arg any) {
		n++
		if n <= b.N {
			tail++
			l.AtCall(tail, step, nil)
		}
	}
	for i := 0; i < depth; i++ {
		tail++
		l.AtCall(tail, step, nil)
	}
	b.ResetTimer()
	e.Run()
}

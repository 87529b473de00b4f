package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Nanosecond != 1000 || Microsecond != 1e6 || Millisecond != 1e9 || Second != 1e12 {
		t.Fatalf("unit constants wrong: %d %d %d %d", Nanosecond, Microsecond, Millisecond, Second)
	}
	if got := (2 * Millisecond).Seconds(); got != 0.002 {
		t.Errorf("Seconds() = %v, want 0.002", got)
	}
	if got := (3 * Nanosecond).Nanoseconds(); got != 3 {
		t.Errorf("Nanoseconds() = %v, want 3", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ps"},
		{1500, "1.500ns"},
		{2500 * Nanosecond, "2.500us"},
		{3 * Millisecond, "3.000ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestClockFromMHz(t *testing.T) {
	core := ClockFromMHz(1400)
	if core.Period != 714 {
		t.Errorf("1.4GHz period = %v, want 714ps", core.Period)
	}
	dram := ClockFromMHz(924)
	if dram.Period != 1082 {
		t.Errorf("924MHz period = %v, want 1082ps", dram.Period)
	}
	if got := core.Cycles(10); got != 7140 {
		t.Errorf("Cycles(10) = %v", got)
	}
	if got := core.ToCycles(7140); got != 10 {
		t.Errorf("ToCycles = %v, want 10", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.ScheduleCall(30, func(any) { order = append(order, 3) }, nil)
	e.ScheduleCall(10, func(any) { order = append(order, 1) }, nil)
	e.ScheduleCall(20, func(any) { order = append(order, 2) }, nil)
	// Same-time events fire in scheduling order.
	e.ScheduleCall(20, func(any) { order = append(order, 4) }, nil)
	end := e.Run()
	if end != 30 {
		t.Errorf("end time = %v, want 30", end)
	}
	want := []int{1, 2, 4, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Events() != 4 {
		t.Errorf("Events() = %d, want 4", e.Events())
	}
}

func TestEngineCascade(t *testing.T) {
	var e Engine
	depth := 0
	var recurse Handler
	recurse = func(any) {
		if depth < 100 {
			depth++
			e.ScheduleCall(1, recurse, nil)
		}
	}
	e.ScheduleCall(0, recurse, nil)
	end := e.Run()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if end != 100 {
		t.Errorf("end = %v, want 100", end)
	}
}

func TestEngineRunUntil(t *testing.T) {
	var e Engine
	fired := 0
	for i := 1; i <= 10; i++ {
		e.ScheduleCall(Time(i)*10, func(any) { fired++ }, nil)
	}
	if drained := e.RunUntil(45); drained {
		t.Fatal("RunUntil(45) reported drained")
	}
	if fired != 4 {
		t.Errorf("fired = %d, want 4", fired)
	}
	if e.Now() != 45 {
		t.Errorf("now = %v, want 45", e.Now())
	}
	if !e.RunUntil(1000) {
		t.Fatal("RunUntil(1000) should drain")
	}
	if fired != 10 {
		t.Errorf("fired = %d, want 10", fired)
	}
}

func TestEngineRunBounded(t *testing.T) {
	var e Engine
	fired := 0
	for i := 1; i <= 10; i++ {
		e.ScheduleCall(Time(i)*10, func(any) { fired++ }, nil)
	}
	if drained := e.RunBounded(4); drained {
		t.Fatal("RunBounded(4) reported drained")
	}
	if fired != 4 {
		t.Errorf("fired = %d, want 4", fired)
	}
	if e.Now() != 40 {
		t.Errorf("now = %v, want 40", e.Now())
	}
	// A zero budget executes nothing and reports the non-empty queue.
	if e.RunBounded(0) {
		t.Fatal("RunBounded(0) reported drained with events pending")
	}
	if fired != 4 {
		t.Errorf("fired after zero budget = %d, want 4", fired)
	}
	// An oversized budget drains and reports it.
	if !e.RunBounded(1000) {
		t.Fatal("RunBounded(1000) should drain")
	}
	if fired != 10 {
		t.Errorf("fired = %d, want 10", fired)
	}
	// Drained engine: any budget reports drained immediately.
	if !e.RunBounded(0) || !e.RunBounded(5) {
		t.Fatal("RunBounded on drained engine should report drained")
	}
}

// TestEngineRunBoundedMatchesRun pins that draining in bounded batches
// is observationally identical to a single Run: same firing order, same
// final time.
func TestEngineRunBoundedMatchesRun(t *testing.T) {
	build := func(e *Engine, order *[]int) {
		for i := 0; i < 50; i++ {
			id := i
			e.ScheduleCall(Time(i%7)*3, func(any) {
				*order = append(*order, id)
				if id%5 == 0 {
					e.ScheduleCall(2, func(any) { *order = append(*order, 1000+id) }, nil)
				}
			}, nil)
		}
	}
	var a, b Engine
	var orderA, orderB []int
	build(&a, &orderA)
	build(&b, &orderB)
	a.Run()
	for !b.RunBounded(3) {
	}
	if a.Now() != b.Now() {
		t.Fatalf("final time: Run=%v RunBounded=%v", a.Now(), b.Now())
	}
	if len(orderA) != len(orderB) {
		t.Fatalf("event counts: Run=%d RunBounded=%d", len(orderA), len(orderB))
	}
	for i := range orderA {
		if orderA[i] != orderB[i] {
			t.Fatalf("firing order diverges at %d: %d vs %d", i, orderA[i], orderB[i])
		}
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	var e Engine
	e.ScheduleCall(-1, func(any) {}, nil)
}

func TestEnginePastSchedulePanics(t *testing.T) {
	var e Engine
	e.ScheduleCall(100, func(any) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.AtCall(50, func(any) {}, nil)
	}, nil)
	e.Run()
}

func TestServerSerializes(t *testing.T) {
	var s Server
	start, done := s.Acquire(0, 10)
	if start != 0 || done != 10 {
		t.Fatalf("first acquire = (%v,%v)", start, done)
	}
	// Arriving while busy queues behind.
	start, done = s.Acquire(5, 10)
	if start != 10 || done != 20 {
		t.Fatalf("second acquire = (%v,%v), want (10,20)", start, done)
	}
	// Arriving after idle starts immediately.
	start, done = s.Acquire(50, 5)
	if start != 50 || done != 55 {
		t.Fatalf("third acquire = (%v,%v), want (50,55)", start, done)
	}
	if s.BusyTime() != 25 {
		t.Errorf("busy = %v, want 25", s.BusyTime())
	}
	if u := s.Utilization(100); u != 0.25 {
		t.Errorf("utilization = %v, want 0.25", u)
	}
}

// Property: a server never starts a request before the later of its arrival
// and the previous completion, and completions are monotone.
func TestServerMonotoneProperty(t *testing.T) {
	f := func(arrivals []uint16, services []uint8) bool {
		var s Server
		now := Time(0)
		prevDone := Time(0)
		for i, a := range arrivals {
			now += Time(a)
			svc := Time(10)
			if i < len(services) {
				svc = Time(services[i]) + 1
			}
			start, done := s.Acquire(now, svc)
			if start < now || start < prevDone || done != start+svc {
				return false
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIntegratorMeanWhileBusy(t *testing.T) {
	var g Integrator
	g.Set(0, 0)
	g.Set(10, 2) // level 2 over [10,30)
	g.Set(30, 0) // idle [30,50)
	g.Set(50, 4) // level 4 over [50,60)
	g.Set(60, 0)
	g.Finish(100)
	// busy time = 30, integral = 2*20 + 4*10 = 80 -> mean 80/30
	want := 80.0 / 30.0
	if got := g.MeanWhileBusy(); got != want {
		t.Errorf("MeanWhileBusy = %v, want %v", got, want)
	}
	if g.BusyTime() != 30 {
		t.Errorf("BusyTime = %v, want 30", g.BusyTime())
	}
	if g.Peak() != 4 {
		t.Errorf("Peak = %d, want 4", g.Peak())
	}
	if got := g.Mean(100); got != 0.8 {
		t.Errorf("Mean(100) = %v, want 0.8", got)
	}
}

func TestIntegratorIncDec(t *testing.T) {
	var g Integrator
	g.Inc(0)
	g.Inc(5)
	g.Dec(10)
	g.Dec(20)
	g.Finish(20)
	// [0,5): 1, [5,10): 2, [10,20): 1 => integral 5+10+10 = 25, busy 20
	if got := g.MeanWhileBusy(); got != 1.25 {
		t.Errorf("MeanWhileBusy = %v, want 1.25", got)
	}
	if g.Level() != 0 {
		t.Errorf("Level = %d, want 0", g.Level())
	}
}

func TestIntegratorNeverBusy(t *testing.T) {
	var g Integrator
	g.Set(0, 0)
	g.Finish(100)
	if got := g.MeanWhileBusy(); got != 0 {
		t.Errorf("MeanWhileBusy = %v, want 0", got)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{1, 2, 3, 4} {
		w.Observe(x)
	}
	if w.Count() != 4 || w.Mean() != 2.5 {
		t.Errorf("count=%d mean=%v", w.Count(), w.Mean())
	}
	if w.Min() != 1 || w.Max() != 4 {
		t.Errorf("min=%v max=%v", w.Min(), w.Max())
	}
	if v := w.Variance(); v < 1.249 || v > 1.251 {
		t.Errorf("variance = %v, want 1.25", v)
	}
}

// Property: Welford mean equals arithmetic mean.
func TestWelfordMeanProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		sum := 0.0
		n := 0
		for _, x := range xs {
			if x != x || x > 1e12 || x < -1e12 { // skip NaN/huge to avoid fp noise
				continue
			}
			w.Observe(x)
			sum += x
			n++
		}
		if n == 0 {
			return w.Count() == 0
		}
		want := sum / float64(n)
		diff := w.Mean() - want
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if want > 1 || want < -1 {
			if want < 0 {
				scale = -want
			} else {
				scale = want
			}
		}
		return diff <= 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

package dram

import (
	"math/rand"
	"testing"

	"valleymap/internal/layout"
	"valleymap/internal/sim"
)

func testCfg() Config {
	return Config{Layout: layout.HynixGDDR5(), Timing: HynixGDDR5Timing()}
}

// run enqueues requests at the given times and returns completion times.
func run(t *testing.T, cfg Config, reqs []struct {
	at    sim.Time
	addr  uint64
	write bool
}) (map[int]sim.Time, *Controller) {
	t.Helper()
	var eng sim.Engine
	c := NewController(&eng, cfg, 0, nil)
	done := make(map[int]sim.Time)
	for i, r := range reqs {
		i, r := i, r
		eng.AtCall(r.at, func(any) {
			c.Enqueue(&Request{Addr: r.addr, Write: r.write, Done: func(d sim.Time) { done[i] = d }})
		}, nil)
	}
	eng.Run()
	if len(done) != len(reqs) {
		t.Fatalf("only %d of %d requests completed", len(done), len(reqs))
	}
	return done, c
}

// addrFor builds a Hynix address with the given row/bank/channel=0.
func addrFor(l layout.Layout, row, bank int) uint64 {
	return l.Compose(layout.Row, uint64(row)) | l.Compose(layout.Bank, uint64(bank))
}

func TestRowMissThenHitTiming(t *testing.T) {
	cfg := testCfg()
	l := cfg.Layout
	tm := cfg.Timing
	cyc := func(n int) sim.Time { return tm.Clock.Cycles(int64(n)) }
	done, c := run(t, cfg, []struct {
		at    sim.Time
		addr  uint64
		write bool
	}{
		{0, addrFor(l, 5, 0), false},
		{0, addrFor(l, 5, 0) + 64, false}, // same row: hit
	})
	// First: closed bank -> ACT(tRCD)+CL+burst on bus.
	wantFirst := cyc(tm.TRCD + tm.CL + tm.BurstCycles)
	if done[0] != wantFirst {
		t.Errorf("miss completion = %v, want %v", done[0], wantFirst)
	}
	// Second is a row hit issued after the first CAS (bank ready at
	// tRCD+burst): CAS at that point + CL + burst, serialized behind the
	// first burst on the bus.
	if done[1] <= done[0] {
		t.Errorf("hit completed at %v, not after first %v", done[1], done[0])
	}
	st := c.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 || st.Activations != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Reads != 2 || st.Writes != 0 {
		t.Errorf("reads/writes = %d/%d", st.Reads, st.Writes)
	}
	if hr := st.RowBufferHitRate(); hr != 0.5 {
		t.Errorf("hit rate = %v", hr)
	}
}

// chain issues n dependent requests (each enqueued when the previous
// completes) and returns the final completion time and controller.
func chain(t *testing.T, cfg Config, n int, addrOf func(i int) uint64) (sim.Time, *Controller) {
	t.Helper()
	var eng sim.Engine
	c := NewController(&eng, cfg, 0, nil)
	var last sim.Time
	var issue func(i int)
	issue = func(i int) {
		if i >= n {
			return
		}
		c.Enqueue(&Request{Addr: addrOf(i), Done: func(d sim.Time) {
			last = d
			eng.AtCall(d, func(any) { issue(i + 1) }, nil)
		}})
	}
	eng.AtCall(0, func(any) { issue(0) }, nil)
	eng.Run()
	return last, c
}

func TestRowConflictCostsMore(t *testing.T) {
	cfg := testCfg()
	l := cfg.Layout
	// Dependent chain alternating two rows on one bank: every access
	// after the first reopens a row (hit rate 0), and tRC gates ACTs.
	lastC, cc := chain(t, cfg, 8, func(i int) uint64 { return addrFor(l, i%2+1, 3) })
	// Dependent chain within one row: all hits after the first.
	lastS, cs := chain(t, cfg, 8, func(i int) uint64 { return addrFor(l, 1, 3) + uint64(i*64) })
	if lastC <= 2*lastS {
		t.Errorf("row conflicts (%v) should be much slower than streaming (%v)", lastC, lastS)
	}
	if cc.Stats().RowBufferHitRate() != 0 {
		t.Errorf("conflict hit rate = %v, want 0", cc.Stats().RowBufferHitRate())
	}
	if hr := cs.Stats().RowBufferHitRate(); hr != 7.0/8.0 {
		t.Errorf("streaming hit rate = %v, want 7/8", hr)
	}
}

// TestFRFCFSBatchesQueuedHits checks the complementary behavior: when
// conflicting requests are all queued at once, FR-FCFS reorders them into
// per-row batches and recovers most of the row locality.
func TestFRFCFSBatchesQueuedHits(t *testing.T) {
	cfg := testCfg()
	l := cfg.Layout
	var reqs []struct {
		at    sim.Time
		addr  uint64
		write bool
	}
	for i := 0; i < 8; i++ {
		reqs = append(reqs, struct {
			at    sim.Time
			addr  uint64
			write bool
		}{0, addrFor(l, i%2+1, 3), false})
	}
	_, c := run(t, cfg, reqs)
	// Two batches of 4: 2 misses, 6 hits.
	if hr := c.Stats().RowBufferHitRate(); hr != 0.75 {
		t.Errorf("batched hit rate = %v, want 0.75", hr)
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	cfg := testCfg()
	l := cfg.Layout
	// Open row 1 via request A; then enqueue B (row 2, older) and C
	// (row 1, younger) while the bank is busy. FR-FCFS must serve C
	// before B.
	var eng sim.Engine
	c := NewController(&eng, cfg, 0, nil)
	var order []string
	mk := func(name string, row int) *Request {
		return &Request{Addr: addrFor(l, row, 0), Done: func(sim.Time) { order = append(order, name) }}
	}
	eng.AtCall(0, func(any) { c.Enqueue(mk("A", 1)) }, nil)
	eng.AtCall(1, func(any) { c.Enqueue(mk("B", 2)) }, nil)
	eng.AtCall(2, func(any) { c.Enqueue(mk("C", 1)) }, nil)
	eng.Run()
	if len(order) != 3 || order[0] != "A" || order[1] != "C" || order[2] != "B" {
		t.Errorf("service order = %v, want [A C B]", order)
	}
}

func TestBankParallelismBeatsSerialization(t *testing.T) {
	cfg := testCfg()
	l := cfg.Layout
	mkReqs := func(banked bool) []struct {
		at    sim.Time
		addr  uint64
		write bool
	} {
		var reqs []struct {
			at    sim.Time
			addr  uint64
			write bool
		}
		for i := 0; i < 16; i++ {
			bank := 0
			row := i + 1
			if banked {
				bank = i % 16
				row = 1
			}
			reqs = append(reqs, struct {
				at    sim.Time
				addr  uint64
				write bool
			}{0, addrFor(l, row, bank), false})
		}
		return reqs
	}
	doneB, _ := run(t, cfg, mkReqs(true))
	doneS, _ := run(t, cfg, mkReqs(false))
	last := func(m map[int]sim.Time) sim.Time {
		var mx sim.Time
		for _, d := range m {
			if d > mx {
				mx = d
			}
		}
		return mx
	}
	if last(doneB) >= last(doneS) {
		t.Errorf("16 banks in parallel (%v) should beat 16 conflicting rows on one bank (%v)",
			last(doneB), last(doneS))
	}
}

func TestDataBusSerializesAcrossBanks(t *testing.T) {
	cfg := testCfg()
	l := cfg.Layout
	tm := cfg.Timing
	// Two hits on different open banks complete at least one burst apart.
	var eng sim.Engine
	c := NewController(&eng, cfg, 0, nil)
	var times []sim.Time
	open := func(bank int) {
		c.Enqueue(&Request{Addr: addrFor(l, 1, bank), Done: func(d sim.Time) { times = append(times, d) }})
	}
	eng.AtCall(0, func(any) { open(0); open(1) }, nil)
	eng.Run()
	if len(times) != 2 {
		t.Fatal("requests lost")
	}
	gap := times[1] - times[0]
	if gap < 0 {
		gap = -gap
	}
	if gap < tm.Clock.Cycles(int64(tm.BurstCycles)) {
		t.Errorf("bus gap %v < one burst %v", gap, tm.Clock.Cycles(int64(tm.BurstCycles)))
	}
}

func TestSystemRoutesChannels(t *testing.T) {
	var eng sim.Engine
	cfg := testCfg()
	sys := NewSystem(&eng, cfg, nil)
	if len(sys.Controllers) != 4 {
		t.Fatalf("channels = %d, want 4", len(sys.Controllers))
	}
	l := cfg.Layout
	nDone := 0
	for ch := 0; ch < 4; ch++ {
		addr := l.Compose(layout.Channel, uint64(ch)) | l.Compose(layout.Row, 7)
		sys.Enqueue(&Request{Addr: addr, Done: func(sim.Time) { nDone++ }})
	}
	eng.Run()
	if nDone != 4 {
		t.Fatalf("done = %d", nDone)
	}
	for ch, c := range sys.Controllers {
		if st := c.Stats(); st.Reads != 1 {
			t.Errorf("channel %d reads = %d, want 1", ch, st.Reads)
		}
	}
	sum := sys.Stats()
	if sum.Reads != 4 || sum.Activations != 4 {
		t.Errorf("system stats = %+v", sum)
	}
}

func TestStacked3DGeometry(t *testing.T) {
	var eng sim.Engine
	cfg := Config{Layout: layout.Stacked3D(), Timing: Stacked3DTiming()}
	sys := NewSystem(&eng, cfg, nil)
	if len(sys.Controllers) != 4 {
		t.Fatalf("stacks = %d", len(sys.Controllers))
	}
	if n := len(sys.Controllers[0].banks); n != 256 {
		t.Fatalf("banks per stack = %d, want 256 (16 vaults x 16 banks)", n)
	}
	done := 0
	for v := 0; v < 16; v++ {
		addr := cfg.Layout.Compose(layout.Vault, uint64(v)) | cfg.Layout.Compose(layout.Row, 3)
		sys.Enqueue(&Request{Addr: addr, Done: func(sim.Time) { done++ }})
	}
	eng.Run()
	if done != 16 {
		t.Fatalf("done = %d", done)
	}
}

type probeRec struct {
	chLevel   map[int]int
	bankLevel map[[2]int]int
	neg       bool
}

func (p *probeRec) ChannelDelta(now sim.Time, ch, d int) {
	p.chLevel[ch] += d
	if p.chLevel[ch] < 0 {
		p.neg = true
	}
}
func (p *probeRec) BankDelta(now sim.Time, ch, b, d int) {
	p.bankLevel[[2]int{ch, b}] += d
	if p.bankLevel[[2]int{ch, b}] < 0 {
		p.neg = true
	}
}

// Property: probe deltas balance to zero and never go negative; every
// enqueued request completes exactly once.
func TestProbeBalancedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		var eng sim.Engine
		cfg := testCfg()
		probe := &probeRec{chLevel: map[int]int{}, bankLevel: map[[2]int]int{}}
		sys := NewSystem(&eng, cfg, probe)
		n := 200
		completed := 0
		for i := 0; i < n; i++ {
			addr := uint64(rng.Intn(1<<30)) &^ 63
			at := sim.Time(rng.Intn(100000))
			eng.AtCall(at, func(any) {
				sys.Enqueue(&Request{Addr: addr, Write: rng.Intn(3) == 0, Done: func(sim.Time) { completed++ }})
			}, nil)
		}
		eng.Run()
		if completed != n {
			t.Fatalf("completed %d of %d", completed, n)
		}
		if probe.neg {
			t.Fatal("probe went negative")
		}
		for ch, v := range probe.chLevel {
			if v != 0 {
				t.Errorf("channel %d level = %d at end", ch, v)
			}
		}
		st := sys.Stats()
		if st.Reads+st.Writes != int64(n) {
			t.Errorf("reads+writes = %d, want %d", st.Reads+st.Writes, n)
		}
		if st.RowHits+st.RowMisses != int64(n) {
			t.Errorf("hits+misses = %d, want %d", st.RowHits+st.RowMisses, n)
		}
	}
}

func TestTRCEnforced(t *testing.T) {
	cfg := testCfg()
	l := cfg.Layout
	tm := cfg.Timing
	// Two row misses back to back on one bank: second ACT must wait tRC
	// after the first.
	done, _ := run(t, cfg, []struct {
		at    sim.Time
		addr  uint64
		write bool
	}{
		{0, addrFor(l, 1, 0), false},
		{0, addrFor(l, 2, 0), false},
	})
	// Second request: ACT at >= tRC, + tRCD + CL + burst.
	minDone := tm.Clock.Cycles(int64(tm.TRC + tm.TRCD + tm.CL + tm.BurstCycles))
	if done[1] < minDone {
		t.Errorf("second conflicting request done at %v, want >= %v (tRC enforced)", done[1], minDone)
	}
}

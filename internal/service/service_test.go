package service

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"valleymap/internal/experiments"
	"valleymap/internal/store"
)

func TestProfileCacheCoalescesInflight(t *testing.T) {
	c := newProfileCache(8, NewMetrics())
	var computes atomic.Int64
	gate := make(chan struct{})
	const n = 20
	var wg sync.WaitGroup
	hits := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, tier, err := c.GetOrCompute("k", func() (*ProfileResult, error) {
				computes.Add(1)
				<-gate
				return &ProfileResult{CacheKey: "k"}, nil
			})
			if err != nil {
				t.Error(err)
			}
			hits[i] = tier != store.TierMiss
		}()
	}
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times, want exactly 1", got)
	}
	nHits := 0
	for _, h := range hits {
		if h {
			nHits++
		}
	}
	if nHits != n-1 {
		t.Errorf("%d hits out of %d, want %d (all but the computing caller)", nHits, n, n-1)
	}
}

func TestProfileCacheSurvivesPanickingCompute(t *testing.T) {
	c := newProfileCache(8, NewMetrics())
	_, _, err := c.GetOrCompute("k", func() (*ProfileResult, error) { panic("boom") })
	if err == nil {
		t.Fatal("panicking compute must surface as an error")
	}
	// The key must not be poisoned: a retry computes fresh, no hang.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, tier, err := c.GetOrCompute("k", func() (*ProfileResult, error) { return &ProfileResult{}, nil }); tier != store.TierMiss || err != nil {
			t.Errorf("retry after panic: tier=%v err=%v", tier, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("retry after panicking compute hung — in-flight entry leaked")
	}
}

func TestProfileCacheDoesNotCacheErrors(t *testing.T) {
	c := newProfileCache(8, NewMetrics())
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute("k", func() (*ProfileResult, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, tier, err := c.GetOrCompute("k", func() (*ProfileResult, error) { return &ProfileResult{}, nil }); tier != store.TierMiss || err != nil {
		t.Fatalf("after error: tier=%v err=%v, want recompute", tier, err)
	}
}

func TestProfileWorkloadAndValley(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	res, hit, err := s.Profile(ProfileRequest{Workload: "MT", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first request must miss")
	}
	if len(res.PerBit) != 30 {
		t.Fatalf("per_bit has %d entries, want 30", len(res.PerBit))
	}
	if !res.Valley {
		t.Error("MT must classify as an entropy-valley workload")
	}
	if len(res.ValleyRanges) == 0 {
		t.Error("MT must report at least one valley range")
	}
	for _, r := range res.ValleyRanges {
		// 128 B coalescing zeroes bits 0-6; dead line-offset bits are
		// structural, not a harvestable valley.
		if r.Lo < 7 {
			t.Errorf("valley range %+v includes coalescing-zeroed bits", r)
		}
	}

	res2, hit2, err := s.Profile(ProfileRequest{Workload: "MT", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Error("identical request must hit the cache")
	}
	if res2.CacheKey != res.CacheKey {
		t.Errorf("cache keys differ: %q vs %q", res.CacheKey, res2.CacheKey)
	}

	// Different options must not collide.
	res3, hit3, err := s.Profile(ProfileRequest{Workload: "MT", Scale: "tiny", Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	if hit3 {
		t.Error("different window must be a distinct cache entry")
	}
	if res3.CacheKey == res.CacheKey {
		t.Error("window must be part of the cache key")
	}
}

func TestProfileLargeLineBytesDoesNotForceValley(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	// 512 B coalescing structurally zeroes channel bit 8; the valley
	// verdict must come from the surviving channel/bank bits, not from
	// bits the line mask forced to zero.
	res, _, err := s.Profile(ProfileRequest{Workload: "MUM", Scale: "tiny", LineBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if res.Valley {
		t.Error("MUM (uniform random) must not be classified as a valley just because line_bytes=512 zeroes bit 8")
	}
	for _, r := range res.ValleyRanges {
		if r.Lo < 9 {
			t.Errorf("valley range %+v includes bits zeroed by 512 B coalescing", r)
		}
	}
}

func TestProfileSeedIgnoredWithoutScheme(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	r1, _, err := s.Profile(ProfileRequest{Workload: "SP", Scale: "tiny", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, hit, err := s.Profile(ProfileRequest{Workload: "SP", Scale: "tiny", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Errorf("seed without scheme must not fragment the cache (key %q)", r1.CacheKey)
	}
}

func TestJobStoreEvictsFinishedAndBoundsInflight(t *testing.T) {
	js := newJobStore(2)
	a, err := js.create("simulate", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	js.finish(a.ID, nil, nil)
	b, err := js.create("simulate", 1, nil) // in flight: must never be evicted
	if err != nil {
		t.Fatal(err)
	}
	c, err := js.create("simulate", 1, nil) // at cap: evicts finished a
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := js.get(a.ID); ok {
		t.Error("oldest finished job must be evicted past the cap")
	}
	for _, id := range []string{b.ID, c.ID} {
		if _, ok := js.get(id); !ok {
			t.Errorf("job %s must be retained", id)
		}
	}
	// Cap full of in-flight jobs: creation must fail, not grow the store.
	if _, err := js.create("simulate", 1, nil); err == nil {
		t.Error("create with a cap full of in-flight jobs must error")
	}
	js.finish(b.ID, nil, nil)
	if _, err := js.create("simulate", 1, nil); err != nil {
		t.Errorf("create after a job finished must succeed, got %v", err)
	}
}

func TestSimulateRejectsWhenJobCapFull(t *testing.T) {
	s := New(Config{Workers: 1, MaxJobs: 1})
	defer s.Close()
	// Park the only worker so the first job stays in flight.
	gate := make(chan struct{})
	s.pool.submit(func() { <-gate })

	job, err := s.Simulate(SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny"})
	if err != nil {
		close(gate)
		t.Fatal(err)
	}
	_, err = s.Simulate(SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny"})
	var ov overloadedError
	if err == nil || !errors.As(err, &ov) {
		t.Errorf("second simulate with MaxJobs=1 must be rejected as overloaded while the first runs, got %v", err)
	}
	close(gate)
	if j := waitJob(t, s, job.ID); j.Status != JobDone {
		t.Errorf("first job ended %s: %s", j.Status, j.Error)
	}
}

func TestSimulateAfterCloseRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Close()
	_, err := s.Simulate(SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny"})
	var ov overloadedError
	if err == nil || !errors.As(err, &ov) {
		t.Errorf("Simulate after Close: err = %v, want overloaded (no dispatcher may start once Close begins)", err)
	}
	s.Close() // idempotent, and must not deadlock after the rejection
}

func TestPoolSubmitAfterClose(t *testing.T) {
	m := NewMetrics()
	p := newPool(2, 4, m, nil)
	done := make(chan struct{})
	if !p.submit(func() { close(done) }) {
		t.Fatal("submit before close must succeed")
	}
	<-done
	p.close()
	if p.submit(func() {}) {
		t.Error("submit after close must report false, not panic")
	}
}

func TestProfileErrors(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	cases := []struct {
		name string
		req  ProfileRequest
		is   func(error) bool
	}{
		{"empty", ProfileRequest{}, isBadRequest},
		{"unknown workload", ProfileRequest{Workload: "NOPE"}, isNotFound},
		{"bad scale", ProfileRequest{Workload: "MT", Scale: "huge"}, isBadRequest},
		{"bad scheme", ProfileRequest{Workload: "MT", Scheme: "XYZ"}, isBadRequest},
		{"negative window", ProfileRequest{Workload: "MT", Window: -3}, isBadRequest},
		{"non-pow2 line bytes", ProfileRequest{Workload: "MT", LineBytes: 100}, isBadRequest},
		{"bits below channel/bank field", ProfileRequest{Workload: "MT", Bits: 8}, isBadRequest},
		{"huge line bytes", ProfileRequest{Workload: "MT", LineBytes: 1 << 21}, isBadRequest},
		{"both sources", ProfileRequest{Workload: "MT", TraceCSV: "K,k,1,0\nR,0,0,R,100\n"}, isBadRequest},
		{"bad trace", ProfileRequest{TraceCSV: "garbage"}, isBadRequest},
	}
	for _, tc := range cases {
		if _, _, err := s.Profile(tc.req); err == nil || !tc.is(err) {
			t.Errorf("%s: err = %v, want typed client error", tc.name, err)
		}
	}
}

func isBadRequest(err error) bool { var e badRequestError; return errors.As(err, &e) }
func isNotFound(err error) bool   { var e notFoundError; return errors.As(err, &e) }

func TestAdviseRecommendsEntropyGain(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	res, err := s.Advise(AdviseRequest{ProfileRequest: ProfileRequest{Workload: "MT", Scale: "tiny"}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Base.Valley {
		t.Fatal("MT base profile must have a valley")
	}
	if res.Recommended.Gain <= 0 {
		t.Errorf("recommended gain = %g, want > 0 (valley must be fillable)", res.Recommended.Gain)
	}
	if got := res.Recommended.Scheme; got != "PAE" && got != "FAE" && got != "ALL" {
		t.Errorf("recommended scheme = %q, want a proposed scheme", got)
	}
	if len(res.Candidates) != 9 { // 3 schemes x 3 seeds
		t.Errorf("evaluated %d candidates, want 9", len(res.Candidates))
	}
	// Candidates are sorted by gain descending.
	for i := 1; i < len(res.Candidates); i++ {
		if res.Candidates[i].Gain > res.Candidates[i-1].Gain+1e-12 {
			t.Errorf("candidates not sorted: %g before %g", res.Candidates[i-1].Gain, res.Candidates[i].Gain)
		}
	}
	if res.Recommended.BIM.N() != 30 {
		t.Errorf("recommended BIM is %d-bit, want 30", res.Recommended.BIM.N())
	}
}

func TestAdviseRejectsMappedBase(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	_, err := s.Advise(AdviseRequest{ProfileRequest: ProfileRequest{Workload: "MT", Scheme: "PAE"}})
	if !isBadRequest(err) {
		t.Errorf("err = %v, want bad request", err)
	}
	_, err = s.Advise(AdviseRequest{ProfileRequest: ProfileRequest{Workload: "MT"}, Schemes: []string{"BASE"}})
	if !isBadRequest(err) {
		t.Errorf("BASE candidate: err = %v, want bad request", err)
	}
	_, err = s.Advise(AdviseRequest{ProfileRequest: ProfileRequest{Workload: "MT"}, Seeds: []int64{0}})
	if !isBadRequest(err) {
		t.Errorf("seed 0: err = %v, want bad request (BIM would not match reported gains)", err)
	}
	_, err = s.Advise(AdviseRequest{ProfileRequest: ProfileRequest{Workload: "MT", Seed: 7}})
	if !isBadRequest(err) {
		t.Errorf("embedded seed: err = %v, want bad request (would be silently ignored)", err)
	}
}

func TestAggregateSweep(t *testing.T) {
	cell := func(wl, sc string, ps int64) CellResult {
		return CellResult{Workload: wl, Scheme: sc, ResultJSON: experiments.ResultJSON{ExecTimePS: ps}}
	}
	r := &SimulateResult{
		Cells: []CellResult{
			cell("MT", "BASE", 1000),
			cell("MT", "PAE", 500),
			cell("LU", "BASE", 900),
			cell("LU", "PAE", 600),
		},
	}
	aggregateSweep(r)
	if got := r.Cells[1].Speedup; got != 2.0 {
		t.Errorf("MT PAE speedup = %g, want 2", got)
	}
	hm := r.HMeanSpeedup["PAE"]
	want := 2.0 / (1/2.0 + 1/1.5)
	if diff := hm - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("hmean = %g, want %g", hm, want)
	}
	if r.HMeanSpeedup["BASE"] != 1.0 {
		t.Errorf("BASE hmean = %g, want 1", r.HMeanSpeedup["BASE"])
	}
}

func TestSimulateJobLifecycle(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()

	job, err := s.Simulate(SimulateRequest{
		Workloads: []string{"MT"},
		Schemes:   []string{"BASE", "PAE"},
		Scale:     "tiny",
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.Total != 2 {
		t.Fatalf("total cells = %d, want 2", job.Total)
	}
	final := waitJob(t, s, job.ID)
	if final.Status != JobDone {
		t.Fatalf("job status = %s (error %q), want done", final.Status, final.Error)
	}
	if final.Done != 2 {
		t.Errorf("done cells = %d, want 2", final.Done)
	}
	res := final.Result
	if res == nil || len(res.Cells) != 2 {
		t.Fatalf("result = %+v, want 2 cells", res)
	}
	for _, c := range res.Cells {
		if c.ExecTimePS <= 0 {
			t.Errorf("cell %s/%s has non-positive exec time", c.Workload, c.Scheme)
		}
	}
	if res.HMeanSpeedup["PAE"] <= 0 {
		t.Errorf("PAE hmean speedup = %g, want > 0", res.HMeanSpeedup["PAE"])
	}
}

// TestSimulateResultCache pins the simulation-result cache: a repeated
// sweep serves every cell from cache (Cached=true, hit counters move,
// no new simulations) with identical metrics, and both sweeps record
// wall times.
func TestSimulateResultCache(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()

	req := SimulateRequest{
		Workloads: []string{"SP", "NW"},
		Schemes:   []string{"BASE", "PAE"},
		Scale:     "tiny",
	}
	sweep := func() *SimulateResult {
		t.Helper()
		job, err := s.Simulate(req)
		if err != nil {
			t.Fatal(err)
		}
		final := waitJob(t, s, job.ID)
		if final.Status != JobDone {
			t.Fatalf("job status = %s (error %q)", final.Status, final.Error)
		}
		return final.Result
	}

	first := sweep()
	series := scrape(t, s.Metrics())
	if hits, misses := series["valleyd_sim_cells_cache_hits_total"], series["valleyd_sim_cells_cache_misses_total"]; hits != 0 || misses != 4 {
		t.Fatalf("after cold sweep hits=%g misses=%g, want 0/4", hits, misses)
	}
	if first.Seconds <= 0 {
		t.Error("cold sweep recorded no duration")
	}
	for _, c := range first.Cells {
		if c.Cached {
			t.Errorf("cold cell %s/%s marked cached", c.Workload, c.Scheme)
		}
		if c.Seconds <= 0 {
			t.Errorf("cold cell %s/%s recorded no wall time", c.Workload, c.Scheme)
		}
	}

	second := sweep()
	series = scrape(t, s.Metrics())
	if hits := series["valleyd_sim_cells_cache_hits_total"]; hits != 4 {
		t.Fatalf("after warm sweep hits=%g, want 4", hits)
	}
	for i, c := range second.Cells {
		if !c.Cached {
			t.Errorf("warm cell %s/%s not served from cache", c.Workload, c.Scheme)
		}
		if c.ResultJSON != first.Cells[i].ResultJSON {
			t.Errorf("warm cell %s/%s metrics differ from cold run", c.Workload, c.Scheme)
		}
	}
	if second.HMeanSpeedup["PAE"] != first.HMeanSpeedup["PAE"] {
		t.Error("cached sweep changed aggregate speedups")
	}
	if series["valleyd_sweep_seconds_total"] <= 0 {
		t.Error("sweep_seconds metric not accumulated")
	}
	if got := series["valleyd_sim_cells_total"]; got != 4 {
		t.Errorf("cells simulated = %g, want 4 (cache hits must not re-simulate)", got)
	}
}

func TestSimulateValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	cases := []struct {
		name string
		req  SimulateRequest
		is   func(error) bool
	}{
		{"empty", SimulateRequest{}, isBadRequest},
		{"unknown workload", SimulateRequest{Workloads: []string{"NOPE"}}, isNotFound},
		{"unknown set", SimulateRequest{Set: "everything"}, isBadRequest},
		{"both", SimulateRequest{Workloads: []string{"MT"}, Set: "valley"}, isBadRequest},
		{"bad scheme", SimulateRequest{Workloads: []string{"MT"}, Schemes: []string{"???"}}, isBadRequest},
		{"bad config", SimulateRequest{Workloads: []string{"MT"}, Config: "quantum"}, isBadRequest},
	}
	for _, tc := range cases {
		if _, err := s.Simulate(tc.req); err == nil || !tc.is(err) {
			t.Errorf("%s: err = %v, want typed client error", tc.name, err)
		}
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"valleymap/internal/experiments"
	"valleymap/internal/service"
)

// TestSmokeEachWorkload runs every workload briefly in both modes and
// requires a correct run whose result line carries exactly the metrics
// BENCHMARK.json names for that mode.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take several seconds each")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opt := options{workload: w.name, seed: 2, seconds: 1, trace: traced, out: t.TempDir(), rounds: 2, setupReps: 1}
			rep, err := run(opt, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct {
				t.Errorf("%s traced=%v: incorrect run: %v", w.name, traced, rep.Failures)
			}
			want := gated
			if traced {
				want = layerMetricNames()
			}
			got := rep.result().Metrics
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(got), len(want))
			}
			for _, name := range want {
				m, ok := got[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, name)
				case m.Unit == "":
					t.Errorf("%s traced=%v: metric %s has no unit", w.name, traced, name)
				case !traced && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
			if traced {
				sum := 0.0
				for _, row := range rep.Ledger {
					if row.Layer != "wall" {
						sum += row.Ms
					}
				}
				if wall := got["wall_ms"].Value; math.Abs(sum-wall) > 1e-6*wall {
					t.Errorf("%s: ledger rows sum to %v ms, wall is %v ms", w.name, sum, wall)
				}
			}
		}
	}
}

// TestFreshSeedsArePositiveAndDistinct checks that every -seed, the
// extremes included, gives fresh seeds valleyd accepts (positive), that
// lie above every warm seed and differ between clients and ops.
func TestFreshSeedsArePositiveAndDistinct(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 1000, 1 << 29, 1234567890, 4000000000, math.MaxInt64, -1, -5, math.MinInt64} {
		b := &bench{opt: options{seed: seed}}
		if w := warmSeed(b); w < 1 || w > 1000 {
			t.Errorf("seed %d: warm seed %d outside 1..1000", seed, w)
		}
		seen := map[int64]bool{}
		for _, id := range []int{-1, 0, 1, 63} {
			c := &client{id: id, b: b}
			for c.seq = 0; c.seq < 3000; c.seq += 7 {
				f := freshSeed(c)
				if f <= 1000 || f+1 <= 1000 {
					t.Fatalf("seed %d client %d op %d: fresh seed %d not above the warm seeds", seed, id, c.seq, f)
				}
				if seen[f] {
					t.Fatalf("seed %d client %d op %d: fresh seed %d repeats", seed, id, c.seq, f)
				}
				seen[f] = true
			}
		}
	}
}

func event(seq int, typ string, done, total int) service.JobEvent {
	ev := service.JobEvent{Seq: seq, Type: typ, JobID: "job-1", Done: done, Total: total}
	if typ == service.EventCell {
		ev.Cell = &service.CellResult{Workload: "MT", Scheme: []string{"BASE", "PAE"}[seq%2]}
	}
	return ev
}

func ndjson(evs []service.JobEvent) string {
	var b strings.Builder
	for _, ev := range evs {
		line, _ := json.Marshal(ev)
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// goodStream is a two-cell sweep's full event log.
func goodStream() []service.JobEvent {
	return []service.JobEvent{
		event(0, service.EventStart, 0, 2),
		event(1, service.EventCell, 1, 2),
		event(2, service.EventCell, 2, 2),
		event(3, service.EventDone, 2, 2),
	}
}

func TestReadStreamRejectsCorruptStreams(t *testing.T) {
	if _, err := readStream(strings.NewReader(ndjson(goodStream())), 0, 2, nil); err != nil {
		t.Fatalf("good stream: %v", err)
	}
	if _, err := readStream(strings.NewReader(ndjson(goodStream()[2:])), 2, 2, nil); err != nil {
		t.Fatalf("good resumed stream: %v", err)
	}
	corrupt := map[string]func([]service.JobEvent) []service.JobEvent{
		"gap":            func(e []service.JobEvent) []service.JobEvent { return append(e[:1:1], e[2:]...) },
		"duplicate":      func(e []service.JobEvent) []service.JobEvent { return append(e[:2:2], e[1:]...) },
		"no terminal":    func(e []service.JobEvent) []service.JobEvent { return e[:3] },
		"after terminal": func(e []service.JobEvent) []service.JobEvent { return append(e, event(4, service.EventCell, 2, 2)) },
		"short count":    func(e []service.JobEvent) []service.JobEvent { e[3].Done = 1; return e },
		"failed":         func(e []service.JobEvent) []service.JobEvent { e[3].Type = service.EventFailed; return e },
		"start not first": func(e []service.JobEvent) []service.JobEvent {
			e[0].Type = service.EventCell
			e[0].Cell = e[1].Cell
			return e
		},
		"terminal too soon": func(e []service.JobEvent) []service.JobEvent { e[2] = event(2, service.EventDone, 2, 2); return e[:3] },
	}
	for name, f := range corrupt {
		if _, err := readStream(strings.NewReader(ndjson(f(goodStream()))), 0, 2, nil); err == nil {
			t.Errorf("%s: corrupt stream accepted", name)
		}
	}
	if _, err := readStream(strings.NewReader(ndjson(goodStream())[:40]), 0, 2, nil); err == nil {
		t.Error("torn line accepted")
	}
}

func TestCheckGridRejectsWrongCells(t *testing.T) {
	cell := func(w, s string) *service.CellResult { return &service.CellResult{Workload: w, Scheme: s} }
	ws, ss := []string{"MT", "SC"}, []string{"BASE"}
	if err := checkGrid([]*service.CellResult{cell("MT", "BASE"), cell("SC", "BASE")}, ws, ss); err != nil {
		t.Fatalf("good grid: %v", err)
	}
	for name, cells := range map[string][]*service.CellResult{
		"missing":   {cell("MT", "BASE")},
		"duplicate": {cell("MT", "BASE"), cell("MT", "BASE")},
		"foreign":   {cell("MT", "BASE"), cell("SC", "BASE"), cell("LU", "BASE")},
	} {
		if err := checkGrid(cells, ws, ss); err == nil {
			t.Errorf("%s: wrong grid accepted", name)
		}
	}
}

func TestCheckCellRejectsAnyBitFlip(t *testing.T) {
	want := experiments.ResultJSON{ExecTimePS: 906175, Instructions: 49812, Transactions: 90, IPS: 54969514718.45946, RowBufferHitRate: 0.8611111111111112}
	got := &service.CellResult{Workload: "SP", Scheme: "BASE", ResultJSON: want}
	if err := checkCell(got, want); err != nil {
		t.Fatalf("equal cell: %v", err)
	}
	got.RowBufferHitRate = math.Nextafter(got.RowBufferHitRate, 1)
	if err := checkCell(got, want); err == nil {
		t.Error("cell one ulp off accepted")
	}
	got.ResultJSON = want
	got.Transactions++
	if err := checkCell(got, want); err == nil {
		t.Error("cell with a wrong count accepted")
	}
}

func TestCheckProfileRejectsCorruption(t *testing.T) {
	perBit := []float64{0, 0.25, 0.9999999999999999, 1}
	res := func() *service.ProfileResult {
		return &service.ProfileResult{Trace: service.TraceInfo{SHA256: "abc"}, PerBit: append([]float64(nil), perBit...)}
	}
	if err := checkProfile(res(), "abc", perBit); err != nil {
		t.Fatalf("equal profile: %v", err)
	}
	r := res()
	r.Trace.SHA256 = "abd"
	if checkProfile(r, "abc", perBit) == nil {
		t.Error("wrong sha256 accepted")
	}
	r = res()
	r.PerBit[2] = 1
	if checkProfile(r, "abc", perBit) == nil {
		t.Error("per_bit one ulp off accepted")
	}
	r = res()
	r.PerBit = r.PerBit[:3]
	if checkProfile(r, "abc", perBit) == nil {
		t.Error("short per_bit accepted")
	}
	if checkSameJSON("profile", res(), r) == nil {
		t.Error("changed warm answer accepted")
	}
}

// TestCorruptedResponseFailsOp corrupts a real daemon's streamed sweep
// in flight and requires the op to fail its checks.
func TestCorruptedResponseFailsOp(t *testing.T) {
	b := &bench{opt: options{seed: 1}, ctx: context.Background(), nproc: 2, hc: newHTTPClient(1)}
	svc := service.New(service.Config{Workers: 1, Logger: quietLogger})
	defer svc.Close()
	h := svc.Handler()
	var corrupt atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !corrupt.Load() {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := strings.Replace(rec.Body.String(), `"instructions":`, `"instructions":1`, 1)
		w.WriteHeader(rec.Code)
		io.WriteString(w, body) //nolint:errcheck // test server
	}))
	defer srv.Close()
	s := &warmSpill{abbrs: []string{"SP"}, cold: map[string]experiments.ResultJSON{}}
	req := service.SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny", Seed: 1}
	cells, err := setupSweep(b, srv.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	s.cold["SP/BASE"] = cells[0].ResultJSON
	c := &client{b: b, rng: newRand(1, 0)}
	o, warm := c.sweep(srv.URL, req)
	s.checkCells(o, warm)
	if o.err != nil {
		t.Fatalf("clean warm sweep failed: %v", o.err)
	}
	corrupt.Store(true)
	o, warm = c.sweep(srv.URL, req)
	s.checkCells(o, warm)
	if o.err == nil {
		t.Fatal("corrupted warm cell passed its check")
	}
}

// TestCorruptedMmapProfileFailsRun serves ingest a wrong trace_file
// profile. Only set-up profiles each trace through trace_file, and
// every measured trace_file request is a cache hit that must repeat
// that answer. So the check on the set-up answer must fail the run, and
// a measured op that got the same answer must fail with it.
func TestCorruptedMmapProfileFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("writes and profiles full-scale traces")
	}
	dir := t.TempDir()
	svc := service.New(service.Config{Workers: 1, TraceDir: dir, Logger: quietLogger})
	defer svc.Close()
	h := svc.Handler()
	var corrupt atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		if !corrupt.Load() || !bytes.Contains(body, []byte(`"trace_file"`)) {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var res map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Errorf("undecodable profile: %v", err)
		}
		perBit := res["per_bit"].([]any)
		perBit[len(perBit)-1] = perBit[len(perBit)-1].(float64) + 1e-9
		w.WriteHeader(rec.Code)
		json.NewEncoder(w).Encode(res) //nolint:errcheck // test server
	}))
	defer srv.Close()
	for _, bad := range []bool{false, true} {
		corrupt.Store(bad)
		b := &bench{opt: options{seed: 1}, ctx: context.Background(), nproc: 1, hc: newHTTPClient(1)}
		s := &ingest{ns: nodes{{url: srv.URL}}}
		if err := s.prepare(b, dir); err != nil {
			t.Fatalf("corrupt=%v: %v", bad, err)
		}
		c := &client{b: b, rng: newRand(1, 0)}
		o := s.mmap(c, s.traces[0])
		s.verify(b)
		b.checkSetupOps()
		switch {
		case !bad && (len(b.problems) > 0 || o.err != nil):
			t.Fatalf("clean run failed its checks: %v %v", b.problems, o.err)
		case bad && len(b.problems) == 0:
			t.Fatal("corrupted trace_file profile passed its set-up check")
		case bad && o.err == nil:
			t.Fatal("measured op repeating a corrupted trace_file profile passed")
		}
	}
}

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// gated lists the end-to-end metrics of the machine-readable result
// line, in BENCHMARK.json's order: the ones every workload produces and
// that repeat within their bound. Tails stay in the report: a p99.9 of
// warm sweeps, or a p90 that falls between the cluster mix's warm and
// fresh sweeps, moves by more than any useful bound from run to run.
var gated = []string{"setup_s", "ops_per_s", "latency_p50_ms", "peak_rss_mib"}

// header identifies the run: host, toolchain, source and inputs.
type header struct {
	Workload   string  `json:"workload"`
	Why        string  `json:"why"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Clients    int     `json:"clients"`
	Loop       string  `json:"loop"`
	HostCPU    string  `json:"host_cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	TreeSHA256 string  `json:"tree_sha256"`
	Started    string  `json:"started"`
	// HostCalibMS times one fixed task on every CPU (calibrate) at the
	// start and at the end of the run. It moves only with the host's
	// speed, so it tells host drift from a change in valleyd when runs
	// of the same code disagree.
	HostCalibMS [2]float64 `json:"host_calib_ms"`
}

func newHeader(opt options, info workloadInfo, clients int) header {
	return header{
		Workload: opt.workload, Why: info.why, Seed: opt.seed, Seconds: opt.seconds, Traced: opt.trace,
		Clients: clients, Loop: "closed",
		HostCPU: hostCPU(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitSHA: gitSHA(), TreeSHA256: treeSHA256(),
		Started: time.Now().UTC().Format(time.RFC3339), HostCalibMS: [2]float64{calibrate()},
	}
}

// calibrate returns the median time, in ms, of five rounds in which
// one goroutine per CPU hashes a fixed 8 MiB buffer with sha256. The
// workloads keep every CPU busy, so the figure moves when any of them
// slows.
func calibrate() float64 {
	buf := make([]byte, 8<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	var ms []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for n := runtime.NumCPU(); n > 0; n-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sha256.Sum256(buf)
			}()
		}
		wg.Wait()
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return medianOf(ms)
}

// metric is one reported figure with the samples behind it.
type metric struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Stats *summary `json:"stats,omitempty"`
	Note  string   `json:"note,omitempty"`
}

// report is everything one run measured.
type report struct {
	Header    header            `json:"header"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Ledger    []ledgerRow       `json:"ledger,omitempty"`

	rounds  int
	setup   []float64
	peakRSS float64 // MiB, highest over the measured windows
	rssNote string  // set when the high-water mark could not be reset
	wall    float64 // measured seconds, summed over rounds
	// Per round: requests completed per wall second, and the median
	// latency of the workload's primary requests.
	roundRate, roundP50 []float64
	perLayer            *layerReport
	ops                 []*op // measured ops of every round
	warm                []*op // warm-up ops: checked, not measured
	runStart            time.Time
}

// collect computes the end-to-end metrics from the measured ops.
func (r *report) collect(b *bench) {
	r.EndToEnd = map[string]metric{}
	var lat, sweep, first, prof, adv []float64
	var cells int
	var simInstr, bytes int64
	sort.Slice(r.ops, func(i, j int) bool { return r.ops[i].start.Before(r.ops[j].start) })
	for _, o := range r.ops {
		if o.err != nil {
			continue
		}
		ms := o.seconds() * 1e3
		if b.info.isPrimary(o) {
			lat = append(lat, ms)
		}
		switch {
		case o.kind == "sweep":
			sweep = append(sweep, o.seconds())
			first = append(first, o.firstCell.Sub(o.start).Seconds()*1e3)
			cells += o.ncells
			simInstr += o.simInstr
		case strings.HasPrefix(o.kind, "profile"):
			prof = append(prof, ms)
			bytes += o.bytes
		case o.kind == "advise":
			adv = append(adv, ms)
		}
	}
	add := func(name, unit string, xs []float64, tail bool, note string) {
		if len(xs) == 0 {
			return
		}
		s := summarize(xs)
		v := s.Median
		if tail {
			v = s.Tail
			note = strings.TrimSpace(s.TailLabel + " " + note)
		}
		r.EndToEnd[name] = metric{Value: v, Unit: unit, Stats: &s, Note: note}
	}
	rate := func(name, unit string, n float64, note string) {
		r.EndToEnd[name] = metric{Value: n / r.wall, Unit: unit, Note: note}
	}
	add("setup_s", "s", r.setup, false, fmt.Sprintf("median of %d set-ups", len(r.setup)))
	add("ops_per_s", "1/s", r.roundRate, false, fmt.Sprintf("median over %d rounds of requests completed per wall second", len(r.roundRate)))
	add("latency_p50_ms", "ms", r.roundP50, false, fmt.Sprintf("median over %d rounds of each round's median, %s requests", len(r.roundP50), b.info.primary))
	add("latency_tail_ms", "ms", lat, true, b.info.primary+" requests")
	add("sweep_p50_s", "s", sweep, false, "send to terminal event")
	add("sweep_tail_s", "s", sweep, true, "send to terminal event")
	add("first_cell_p50_ms", "ms", first, false, "send to first cell line")
	add("profile_p50_ms", "ms", prof, false, "all trace containers")
	add("profile_tail_ms", "ms", prof, true, "all trace containers")
	add("advise_p50_ms", "ms", adv, false, "")
	if len(sweep) > 0 {
		rate("cells_per_s", "1/s", float64(cells), "")
		rate("sim_minstr_per_s", "Minstr/s", float64(simInstr)/1e6, "instructions of uncached cells per host second")
	}
	if len(prof) > 0 {
		rate("ingest_mib_per_s", "MiB/s", float64(bytes)/(1<<20), "uploaded bodies and trace_file reads")
	}
}

// finish settles correctness and the figures known only at the end.
func (r *report) finish(b *bench) {
	for _, o := range r.ops {
		r.Attempted++
		if o.err != nil {
			r.Failed++
			if len(r.Failures) < 20 {
				r.Failures = append(r.Failures, o.err.Error())
			}
		}
	}
	r.Failures = append(r.Failures, b.problems...)
	r.Correct = r.Failed == 0 && len(b.problems) == 0 && r.Attempted > 0
	frac := 1.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	r.EndToEnd["failed_frac"] = metric{Value: frac, Unit: "frac", Note: "failed, refused or wrong over attempted"}
	note := "VmHWM of the benchmark process over the measured windows: daemon(s) and client together"
	if r.rssNote != "" {
		note = "VmHWM of the benchmark process " + r.rssNote
	}
	r.EndToEnd["peak_rss_mib"] = metric{Value: r.peakRSS, Unit: "MiB", Note: note}
	if r.perLayer != nil {
		r.PerLayer = r.perLayer.metrics
		r.Ledger = r.perLayer.ledger
	}
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) result() resultLine {
	out := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]resultValue{}}
	if r.Header.Traced {
		for _, name := range layerMetricNames() {
			m := r.PerLayer[name]
			out.Metrics[name] = resultValue{m.Value, m.Unit}
		}
		return out
	}
	for _, name := range gated {
		m := r.EndToEnd[name]
		out.Metrics[name] = resultValue{m.Value, m.Unit}
	}
	return out
}

// write prints the human-readable report to w and stores the full
// report and the spans under the output directory.
func (r *report) write(b *bench, w io.Writer) error {
	h := r.Header
	fmt.Fprintf(w, "valleybench %s seed=%d seconds=%g traced=%v clients=%d loop=%s\n", h.Workload, h.Seed, h.Seconds, h.Traced, h.Clients, h.Loop)
	fmt.Fprintf(w, "host: %s nproc=%d GOMAXPROCS=%d %s git=%s tree=%.12s calib=%.3f/%.3fms\n", h.HostCPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.GitSHA, h.TreeSHA256, h.HostCalibMS[0], h.HostCalibMS[1])
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v wall=%.3fs\n", r.Attempted, r.Failed, r.Correct, r.wall)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAIL: %s\n", f)
	}
	table := func(title string, ms map[string]metric) {
		fmt.Fprintf(w, "%s\n  %-34s %14s %-9s %6s %12s %12s %12s %12s %12s  %s\n", title, "metric", "value", "unit", "n", "median", "q1", "q3", "min", "max", "note")
		for _, name := range sortedKeys(ms) {
			m := ms[name]
			if s := m.Stats; s != nil {
				fmt.Fprintf(w, "  %-34s %14.6g %-9s %6d %12.6g %12.6g %12.6g %12.6g %12.6g  %s\n", name, m.Value, m.Unit, s.N, s.Median, s.Q1, s.Q3, s.Min, s.Max, m.Note)
			} else {
				fmt.Fprintf(w, "  %-34s %14.6g %-9s %6s %12s %12s %12s %12s %12s  %s\n", name, m.Value, m.Unit, "", "", "", "", "", "", m.Note)
			}
		}
	}
	table("end to end:", r.EndToEnd)
	if r.PerLayer != nil {
		table("per layer (traced run):", r.PerLayer)
		fmt.Fprintf(w, "wall-time ledger (ms of wall time per client; rows sum to wall):\n")
		for _, row := range r.Ledger {
			fmt.Fprintf(w, "  %-16s %12.3f ms %6.1f%% of wall %6.1f%% of busy\n", row.Layer, row.Ms, 100*row.WallFrac, 100*row.BusyFrac)
		}
	}
	if err := os.MkdirAll(b.opt.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(b.opt.out, fmt.Sprintf("%s-seed%d-trace%d", h.Workload, h.Seed, map[bool]int{false: 0, true: 1}[h.Traced]))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "report: %s.json\n", base)
	if r.perLayer == nil {
		return nil
	}
	if err := r.writeSpans(base + ".spans.ndjson"); err != nil {
		return err
	}
	fmt.Fprintf(w, "spans: %s.spans.ndjson\n", base)
	return nil
}

// writeSpans stores every op and its layer intervals, one JSON object
// per line, in microseconds from the start of the measured window.
func (r *report) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	us := func(t time.Time) int64 { return t.Sub(r.runStart).Microseconds() }
	type spanJSON struct {
		Layer   string `json:"layer"`
		Level   int    `json:"level"`
		StartUS int64  `json:"start_us"`
		EndUS   int64  `json:"end_us"`
	}
	type opJSON struct {
		Kind    string     `json:"kind"`
		TraceID string     `json:"trace_id"`
		StartUS int64      `json:"start_us"`
		EndUS   int64      `json:"end_us"`
		Error   string     `json:"error,omitempty"`
		Spans   []spanJSON `json:"spans,omitempty"`
	}
	enc := json.NewEncoder(bw)
	for _, o := range r.ops {
		j := opJSON{Kind: o.kind, TraceID: o.traceID, StartUS: us(o.start), EndUS: us(o.end)}
		if o.err != nil {
			j.Error = o.err.Error()
		}
		for _, l := range o.leaves {
			j.Spans = append(j.Spans, spanJSON{layerNames[l.layer], int(l.level), us(l.s), us(l.e)})
		}
		if err := enc.Encode(j); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func hostCPU() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// gitSHA reads HEAD from a .git directory in the working directory,
// without a git binary; a checkout that is not a repository reports
// "none" (tree_sha256 still identifies the source).
func gitSHA() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// treeSHA256 hashes the Go sources and module files under the working
// directory (skipping dot-directories such as the build output), so a
// result identifies the code it measured even outside a repository.
func treeSHA256() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

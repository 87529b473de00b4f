// Command valleybench is valleymap's end-to-end benchmark. It starts
// valleyd's service in this process on loopback, drives one seeded
// workload through the public HTTP API with closed-loop clients, checks
// every response and prints the end-to-end metrics. With -trace 1 it
// also times each layer from outside the program and breaks the
// workload's wall time down by layer. See README.md.
//
//	go run . -workload sweep-cold -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"valleymap/internal/experiments"
	"valleymap/internal/workload"
)

// scenario is one workload: its daemons, inputs and request mix. A
// fresh scenario is built for every set-up repetition.
type scenario interface {
	// setup starts the daemons, generates the inputs and warms the
	// caches the workload needs; it returns once the daemons are ready.
	setup(b *bench) error
	// op runs one closed-loop iteration for c: one request, or a
	// request and the follow-ups it implies.
	op(b *bench, c *client)
	// verify runs the output checks that need a library reference,
	// after the measured window, failing the ops that got it wrong.
	verify(b *bench)
	// replay re-runs the workload's inputs through the library entry
	// points with the benchmark's own timers (traced runs only).
	replay(b *bench, rp *replayStats)
	nodes() nodes
	close()
}

// workloadInfo is a workload's fixed definition.
type workloadInfo struct {
	name string
	why  string
	// perCPU workloads run one client per CPU, the others one client.
	perCPU bool
	// primary names the requests whose latency is the workload's
	// gated latency metric, and picks them out.
	primary   string
	isPrimary func(o *op) bool
	build     func() scenario
}

func kindPrefix(p string) func(o *op) bool {
	return func(o *op) bool { return strings.HasPrefix(o.kind, p) }
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookup(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

var workloads = []workloadInfo{
	{"sweep-cold", "the simulator does ~99% of a cold cell; service and cache do almost nothing",
		false, "sweep", kindPrefix("sweep"), func() scenario { return &sweepCold{} }},
	{"ingest", "trace decode, entropy and mapping do all the work and the simulator none",
		true, "profile", kindPrefix("profile"), func() scenario { return &ingest{} }},
	{"sweep-warm-spill", "every cell comes from the memory or disk tier, so HTTP, JSON and the event bus dominate",
		true, "sweep", kindPrefix("sweep"), func() scenario { return &warmSpill{} }},
	{"cluster-sweep", "the only workload that crosses internal/cluster and /v1/cells",
		false, "warm repeat sweep", func(o *op) bool { return o.kind == "sweep" && !o.fresh }, func() scenario { return &clusterSweep{} }},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// rounds splits the untraced window over freshly set-up daemons,
	// and each round sets up at least setupReps times. main always uses
	// defaultRounds and defaultSetupReps; only the self-tests shorten
	// them.
	rounds, setupReps int
}

// Eight short rounds rather than one long window: a host slowdown that
// lasts a few seconds then moves a minority of the rounds, and the
// gated figures are medians over rounds (see collect).
const (
	defaultRounds    = 8
	defaultSetupReps = 2
	// A round repeats set-up beyond setupReps until setupBudget has
	// passed, at most setupMax times; setup_s is the median of all
	// repetitions of all rounds.
	setupBudget = 250 * time.Millisecond
	setupMax    = 13
)

// bench is the state of one run.
type bench struct {
	opt     options
	info    workloadInfo
	ctx     context.Context
	nproc   int
	dir     string // scratch space for spill dirs and trace files
	hc      *http.Client
	tracer  *tracer
	clients []*client
	// problems are failed checks not tied to a measured op.
	mu       sync.Mutex
	problems []string
	// setupClients made the requests of set-up; their ops are checked
	// with the round's ops (see checkSetupOps).
	setupClients []*client
	// refs memoizes library references of sweep cells across rounds.
	refs map[workload.Scale]map[string]experiments.ResultJSON
}

func (b *bench) problem(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// setupClient returns a client for set-up requests, outside the
// measured window. Its ops are kept, so that a check run on a set-up
// answer after the window (ingest's first trace_file profile, say)
// still fails the run.
func (b *bench) setupClient() *client {
	c := &client{b: b, id: -1, untraced: true}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.setupClients = append(b.setupClients, c)
	return c
}

// checkSetupOps turns every failed set-up op into a run problem and
// forgets the set-up clients.
func (b *bench) checkSetupOps() {
	b.mu.Lock()
	cs := b.setupClients
	b.setupClients = nil
	b.mu.Unlock()
	for _, c := range cs {
		for _, o := range c.ops {
			if o.err != nil {
				b.problem("set-up %s: %v", o.kind, o.err)
			}
		}
	}
}

// runDir returns a fresh scratch directory under the run's directory.
func (b *bench) runDir(name string) (string, error) {
	d := filepath.Join(b.dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

func main() {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&opt.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&opt.out, "out", filepath.Join(".bench_build", "valleybench"), "directory for reports, spans and scratch files")
	flag.Parse()
	opt.rounds, opt.setupReps = defaultRounds, defaultSetupReps
	opt.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if _, ok := lookup(opt.workload); !ok {
		fatalf("unknown -workload %q (want one of %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	if opt.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	rep, err := run(opt, os.Stdout)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "valleybench: FAIL: %s\n", f)
		}
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "valleybench: "+format+"\n", args...)
	os.Exit(2)
}

// run executes one benchmark run and writes its human-readable report
// to w. The returned report's result() is the machine-readable line.
func run(opt options, w io.Writer) (*report, error) {
	info, _ := lookup(opt.workload)
	// A run must end well inside three minutes; a hung request fails
	// rather than stalls.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	b := &bench{opt: opt, info: info, ctx: ctx, nproc: runtime.NumCPU()}
	nclients := 1
	if info.perCPU {
		nclients = b.nproc
	}
	b.hc = newHTTPClient(nclients)
	defer b.hc.CloseIdleConnections()
	if opt.trace {
		b.tracer = newTracer()
	}
	b.dir = filepath.Join(opt.out, fmt.Sprintf("run-%s-%d-%d", opt.workload, opt.seed, os.Getpid()))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)

	rep := &report{Header: newHeader(opt, info, nclients)}
	for i := 0; i < nclients; i++ {
		b.clients = append(b.clients, &client{id: i, b: b, rng: newRand(opt.seed, i)})
	}
	// The window is split over rounds, each on freshly set-up daemons,
	// so one daemon's path-dependent state (which cells sit in which
	// tier, pool and heap sizes) does not decide the whole run. A traced
	// run keeps one round: its ledger covers one set of daemons.
	rep.rounds = opt.rounds
	if opt.trace {
		rep.rounds = 1
	}
	for i := 0; i < rep.rounds; i++ {
		if err := rep.round(b); err != nil {
			return nil, err
		}
	}
	for _, o := range rep.warm {
		if o.err != nil {
			b.problem("warm-up: %v", o.err)
			break
		}
	}
	if ctx.Err() != nil {
		b.problem("run overran its time limit: %v", ctx.Err())
	}
	rep.collect(b)
	rep.finish(b)
	rep.Header.HostCalibMS[1] = calibrate()
	if err := rep.write(b, w); err != nil {
		return nil, err
	}
	return rep, nil
}

// warmup is how long each round's closed loop runs before it is
// measured.
const warmup = 500 * time.Millisecond

// round sets up one scenario, runs its warm-up and measured window,
// checks its outputs and tears it down. Each round repeats set-up, so
// setup_s samples spread over the run, and keeps the last one.
func (r *report) round(b *bench) error {
	window := time.Duration(b.opt.seconds / float64(r.rounds) * float64(time.Second))
	var sc scenario
	for reps, spent := 1, time.Duration(0); ; reps++ {
		s := b.info.build()
		// Collect the previous repetition's garbage first, so no
		// repetition pays for another's.
		runtime.GC()
		t0 := time.Now()
		err := s.setup(b)
		d := time.Since(t0)
		if err != nil {
			s.close()
			return fmt.Errorf("set-up of %s: %w", b.opt.workload, err)
		}
		spent += d
		r.setup = append(r.setup, d.Seconds())
		if reps >= b.opt.setupReps && (spent >= setupBudget || reps >= setupMax) {
			sc = s
			break
		}
		s.close()
	}
	defer sc.close()

	closedLoop(b, sc, warmup)
	for _, c := range b.clients {
		r.warm = append(r.warm, c.ops...)
		c.ops, c.book = nil, nil
	}
	var before snapshot
	if b.tracer != nil {
		before = b.tracer.snapshot(b, sc.nodes())
	}
	// The resident-set high-water mark covers the measured window only,
	// not set-up or the checks that follow.
	if err := resetPeakRSS(); err != nil {
		r.rssNote = "since process start: " + err.Error()
	}
	start := time.Now()
	closedLoop(b, sc, window)
	end := time.Now()
	r.peakRSS = max(r.peakRSS, peakRSSMiB())
	r.wall += end.Sub(start).Seconds()
	if r.runStart.IsZero() {
		r.runStart = start
	}
	var after snapshot
	if b.tracer != nil {
		after = b.tracer.snapshot(b, sc.nodes())
	}
	sc.verify(b)
	b.checkSetupOps()
	if b.tracer != nil {
		rp := newReplayStats()
		sc.replay(b, rp)
		r.perLayer = b.tracer.perLayer(b, sc, before, after, rp, start, end)
	}
	var ok int
	var lat []float64
	for _, c := range b.clients {
		for _, o := range c.ops {
			if o.err == nil {
				ok++
				if b.info.isPrimary(o) {
					lat = append(lat, o.seconds()*1e3)
				}
			}
		}
		r.ops = append(r.ops, c.ops...)
		c.ops = nil
	}
	r.roundRate = append(r.roundRate, float64(ok)/end.Sub(start).Seconds())
	if len(lat) > 0 {
		r.roundP50 = append(r.roundP50, medianOf(lat))
	}
	return nil
}

// closedLoop runs every client's closed loop for d, each client
// starting its next iteration only after the previous one completed.
func closedLoop(b *bench, sc scenario, d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, c := range b.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) && b.ctx.Err() == nil {
				c.iter++
				sc.op(b, c)
			}
		}(c)
	}
	wg.Wait()
}

// newRand seeds client i's request draws from the run's seed.
func newRand(seed int64, i int) *rand.Rand { return rand.New(rand.NewSource(seed*7919 + int64(i))) }

// resetPeakRSS sets the process's resident-set high-water mark to its
// current resident set (Linux clear_refs value 5).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

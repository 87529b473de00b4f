package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math/bits"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"valleymap/internal/bim"
	"valleymap/internal/cluster"
	"valleymap/internal/entropy"
	"valleymap/internal/experiments"
	"valleymap/internal/gpusim"
	"valleymap/internal/layout"
	"valleymap/internal/mapping"
	"valleymap/internal/obs"
	"valleymap/internal/store"
	"valleymap/internal/trace"
	"valleymap/internal/workload"
)

// Valley-classification thresholds, shared with the renderers and the
// JSON export (Figure 5's qualitative low/high split).
const (
	valleyLow  = entropy.DefaultLow
	valleyHigh = entropy.DefaultHigh
)

// minProfileBits is the smallest profile width that covers every
// channel/bank bit of the reference layout — narrower profiles would
// index past PerBit when classifying the valley.
var minProfileBits = func() int {
	l := layout.HynixGDDR5()
	min := 1
	for _, b := range layout.Bits0(l.MaskOf(layout.Channel, layout.Bank)) {
		if b+1 > min {
			min = b + 1
		}
	}
	return min
}()

// Config sizes the service.
type Config struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the worker-pool task queue (0 = 256).
	QueueDepth int
	// CacheEntries bounds the profile LRU cache (0 = 512).
	CacheEntries int
	// SimCacheEntries bounds the simulation-result LRU cache (0 = 256).
	// Cells are keyed by (workload, scale, scheme, config, seed), so
	// repeated sweeps over the same grid are near-free.
	SimCacheEntries int
	// MaxTraceBytes caps uploaded trace bodies (0 = 256 MiB). The cap
	// protects bandwidth, not memory: uploads stream through the
	// decoder → coalescer → accumulator pipeline at O(window × bits)
	// per request, so it is safe to raise far beyond the old 64 MiB
	// materialized-decoder default.
	MaxTraceBytes int64
	// MaxJobs bounds retained jobs; finished jobs beyond the cap are
	// evicted oldest-first (0 = 1000).
	MaxJobs int
	// TraceDir, when set, enables ProfileRequest.TraceFile: profile
	// requests may name trace files (CSV or VTRC binary, sniffed by
	// magic) inside this directory, so local multi-GB traces take the
	// zero-copy mmap path instead of an HTTP body copy.
	TraceDir string
	// SpillDir, when set, makes the simulation-result cache durable and
	// larger than RAM: entries evicted from memory spill to
	// per-entry checksummed files under this directory (written by an
	// async write-behind goroutine), misses read through and promote
	// back, and Close drains the resident set to disk so a restarted
	// valleyd serves repeat sweeps warm. Damaged entries load as
	// misses, never errors.
	SpillDir string
	// SpillMaxBytes bounds the spill directory; a janitor evicts the
	// lowest cost-per-byte entries to stay under it (0 = 1 GiB;
	// negative = unbounded). Ignored without SpillDir.
	SpillMaxBytes int64
	// DefaultDeadline, when positive, bounds every sweep that does not
	// carry its own ?deadline_ms / X-Deadline-Ms budget: the job is
	// canceled with a deadline_exceeded terminal event when it overruns.
	// Zero means jobs without an explicit budget run unbounded.
	DefaultDeadline time.Duration
	// Logger receives the service's structured logs (nil =
	// slog.Default()). Request-scoped children carry trace_id, path and
	// tenant; sweep logs carry job_id and trace_id.
	Logger *slog.Logger
	// Cluster, when set, turns this service into a sweep coordinator:
	// cells are sharded across the client's peer workers by rendezvous
	// hashing over their sim-cache keys (repeat cells land on the
	// worker whose cache is warm), straggler cells are stolen from
	// slow or dead peers, and the service degrades to local execution
	// when no peer is reachable. Nil (the default) runs every cell
	// locally.
	Cluster *cluster.Client
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.SimCacheEntries == 0 {
		c.SimCacheEntries = 256
	}
	if c.MaxTraceBytes == 0 {
		c.MaxTraceBytes = 256 << 20
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 1000
	}
	if c.SpillMaxBytes == 0 {
		c.SpillMaxBytes = 1 << 30
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Service is the valleyd engine. Construct with New, serve its Handler,
// Close on shutdown.
type Service struct {
	cfg      Config
	log      *slog.Logger
	metrics  *Metrics
	cache    *profileCache
	simCache *simCache
	jobs     *jobStore
	pool     *pool
	// costs prices sweep cells for admission control and Retry-After
	// hints (EWMA of measured cell seconds; see admission.go).
	costs *costModel
	// profileSem bounds concurrent profile computations (trace builds +
	// entropy analysis run on handler goroutines, not the sweep pool);
	// without it, N distinct-key requests materialize N traces at once.
	profileSem chan struct{}
	// streamSem separately bounds streamed-upload pipelines: they hold
	// only O(window × bits) so they get more slots than profileSem, but
	// they read the client's body mid-compute, so they must not occupy
	// profileSem's scarce slots for a transfer's duration.
	streamSem chan struct{}
	start     time.Time
	// closeOnce makes Close idempotent.
	closeOnce sync.Once
	// sweepWG tracks sweep dispatcher goroutines so Close can wait for
	// every accepted job to reach a terminal state (done or failed)
	// before the resident cache is spilled. closeMu orders Simulate's
	// Add against Close's Wait: Adds only happen while !closed, and
	// closed is flipped under the lock before Wait starts, so the
	// WaitGroup never sees an Add racing a Wait from zero.
	sweepWG sync.WaitGroup
	closeMu sync.Mutex
	closed  bool
}

// New builds a service with its worker pool running. With
// Config.SpillDir set, the simulation-result cache is two-tier: memory
// over the spill directory, which is scanned (and any damaged entries
// discarded) before serving.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	var spill *store.Disk
	if cfg.SpillDir != "" {
		var err error
		spill, err = newSpillStore(cfg.SpillDir, cfg.SpillMaxBytes, m)
		if err != nil {
			// An unusable spill dir costs durability and warm capacity,
			// never availability: run memory-only.
			cfg.Logger.Warn("spill dir unusable, running memory-only", "dir", cfg.SpillDir, "error", err)
		}
	}
	s := &Service{
		cfg:        cfg,
		log:        cfg.Logger,
		metrics:    m,
		cache:      newProfileCache(cfg.CacheEntries, m),
		simCache:   newSimCache(cfg.SimCacheEntries, spill, m),
		jobs:       newJobStore(cfg.MaxJobs),
		pool:       newPool(cfg.Workers, cfg.QueueDepth, m, cfg.Logger),
		costs:      newCostModel(),
		profileSem: make(chan struct{}, cfg.Workers),
		streamSem:  make(chan struct{}, 4*cfg.Workers),
		start:      time.Now(),
	}
	s.jobs.onDrop = m.streamEventsDropped.Inc
	if cfg.Cluster != nil {
		// The peer-up gauge samples the cluster client's cooldown
		// table at scrape time, like every other gauge.
		m.reg.Register(obs.GaugeVecFunc{
			Name: "valleyd_cluster_peer_up", Label: "peer",
			Help: "Peer health by configured worker (1 = reachable, 0 = in its down cooldown).",
			Fn: func() map[string]float64 {
				up := map[string]float64{}
				for p, ok := range cfg.Cluster.PeerStates() {
					up[p] = 0
					if ok {
						up[p] = 1
					}
				}
				return up
			},
		})
	}
	return s
}

// Close drains the worker pool (in-flight cells finish; new
// submissions are rejected), waits for every accepted job to reach a
// terminal state and, when a spill directory is configured, spills the
// memory-resident cache and drains the write-behind queue so a
// restarted service starts with the whole working set warm. Close is
// idempotent.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		s.closeMu.Lock()
		s.closed = true
		s.closeMu.Unlock()
		s.pool.close()
		s.sweepWG.Wait()
		s.simCache.SpillAll()
		s.simCache.Close()
	})
}

// Metrics exposes the service's counters (for embedding and tests).
func (s *Service) Metrics() *Metrics { return s.metrics }

// badRequestError marks client errors (HTTP 400); notFoundError marks
// unknown-resource errors (HTTP 404).
type badRequestError struct{ msg string }

func (e badRequestError) Error() string { return e.msg }

type notFoundError struct{ msg string }

func (e notFoundError) Error() string { return e.msg }

// overloadedError marks capacity exhaustion (HTTP 503). retryAfter,
// when positive, becomes the response's Retry-After header — derived
// from the current queue depth × mean cell seconds, so clients back
// off proportionally to the actual backlog.
type overloadedError struct {
	msg        string
	retryAfter int
}

func (e overloadedError) Error() string { return e.msg }

func (e overloadedError) retryAfterSeconds() int { return e.retryAfter }

func badRequestf(format string, args ...any) error {
	return badRequestError{fmt.Sprintf(format, args...)}
}

func notFoundf(format string, args ...any) error {
	return notFoundError{fmt.Sprintf(format, args...)}
}

// ---------------------------------------------------------------------
// Profiling
// ---------------------------------------------------------------------

// ProfileRequest asks for a per-bit entropy profile. Either Workload
// names a built-in benchmark by Table II abbreviation, or TraceCSV
// carries an inline trace in the library CSV format (large traces are
// better POSTed as a text/csv body, which streams).
type ProfileRequest struct {
	Workload string `json:"workload,omitempty"`
	TraceCSV string `json:"trace_csv,omitempty"`
	// TraceFile names a trace file (CSV or VTRC binary) inside the
	// server's configured trace directory (Config.TraceDir); binary
	// files are profiled zero-copy via mmap. Bare file names only.
	TraceFile string `json:"trace_file,omitempty"`
	// Scale selects built-in trace size: tiny, small (default), full.
	Scale string `json:"scale,omitempty"`
	// Window, Bits, LineBytes mirror AnalysisOptions (0 = 12/30/128).
	// LineBytes must be a power of two; a negative value profiles the
	// raw per-thread requests without coalescing.
	Window    int `json:"window,omitempty"`
	Bits      int `json:"bits,omitempty"`
	LineBytes int `json:"line_bytes,omitempty"`
	// Scheme optionally applies a mapping before profiling (post-mapping
	// profiles, Figure 10); Seed selects the BIM instance.
	Scheme string `json:"scheme,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
}

// BitRange is a contiguous dead-bit run [Lo, Hi].
type BitRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// ProfileResult is the structured entropy profile of one trace.
type ProfileResult struct {
	Trace        TraceInfo  `json:"trace"`
	Window       int        `json:"window"`
	Bits         int        `json:"bits"`
	LineBytes    int        `json:"line_bytes"`
	Scheme       string     `json:"scheme,omitempty"`
	Seed         int64      `json:"seed,omitempty"`
	PerBit       []float64  `json:"per_bit"`
	MeanChannel  float64    `json:"mean_channel_entropy"`
	MeanBank     float64    `json:"mean_bank_entropy"`
	MinChanBank  float64    `json:"min_channel_bank_entropy"`
	Valley       bool       `json:"valley"`
	ValleyRanges []BitRange `json:"valley_ranges"`
	CacheKey     string     `json:"cache_key"`
}

// TraceInfo summarizes the profiled trace.
type TraceInfo struct {
	Name     string `json:"name"`
	Abbr     string `json:"abbr"`
	Scale    string `json:"scale,omitempty"`
	SHA256   string `json:"sha256,omitempty"`
	Kernels  int    `json:"kernels"`
	Requests int    `json:"requests"`
}

type profileOptions struct {
	window, bits, lineBytes int
	scheme                  mapping.Scheme
	seed                    int64
}

func (r ProfileRequest) options() (profileOptions, error) {
	o := profileOptions{window: r.Window, bits: r.Bits, lineBytes: r.LineBytes, seed: r.Seed}
	if o.window == 0 {
		o.window = 12
	}
	if o.bits == 0 {
		o.bits = 30
	}
	if o.lineBytes == 0 {
		o.lineBytes = 128
	}
	if o.window < 1 {
		return o, badRequestf("window must be >= 1, got %d", r.Window)
	}
	if o.bits < minProfileBits || o.bits > 64 {
		return o, badRequestf("bits must be in [%d,64], got %d (profiles index the layout's channel/bank bits)", minProfileBits, r.Bits)
	}
	// The coalescer's line mask assumes a power of two; anything else
	// would mangle addresses and silently cache a garbage profile.
	if o.lineBytes > 0 && (o.lineBytes&(o.lineBytes-1) != 0 || o.lineBytes > 1<<20) {
		return o, badRequestf("line_bytes must be a power of two <= 1048576, got %d", r.LineBytes)
	}
	if r.Scheme != "" {
		s, err := lookupScheme(r.Scheme)
		if err != nil {
			return o, err
		}
		o.scheme = s
		if o.seed == 0 {
			o.seed = 1
		}
	} else {
		// The seed only feeds the mapper; normalize it away so identical
		// unmapped profiles share one cache entry regardless of seed.
		o.seed = 0
	}
	return o, nil
}

func (o profileOptions) cacheKey(src string) string {
	return fmt.Sprintf("%s|w=%d|b=%d|l=%d|x=%s:%d", src, o.window, o.bits, o.lineBytes, o.scheme, o.seed)
}

func parseScale(s string) (workload.Scale, string, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "tiny":
		return workload.Tiny, "tiny", nil
	case "", "small":
		return workload.Small, "small", nil
	case "full":
		return workload.Full, "full", nil
	default:
		return 0, "", badRequestf("unknown scale %q (want tiny, small or full)", s)
	}
}

// Profile computes (or retrieves) the entropy profile described by req.
// The second return reports a cache hit.
func (s *Service) Profile(req ProfileRequest) (*ProfileResult, bool, error) {
	opt, err := req.options()
	if err != nil {
		return nil, false, err
	}
	switch {
	case req.Workload != "" && req.TraceCSV != "":
		return nil, false, badRequestf("give either workload or trace_csv, not both")
	case req.TraceFile != "" && (req.Workload != "" || req.TraceCSV != ""):
		return nil, false, badRequestf("trace_file cannot be combined with workload or trace_csv")
	case req.TraceFile != "":
		return s.profileFile(req.TraceFile, opt)
	case req.Workload != "":
		spec, err := lookupWorkload(req.Workload)
		if err != nil {
			return nil, false, err
		}
		scale, scaleName, err := parseScale(req.Scale)
		if err != nil {
			return nil, false, err
		}
		return s.workloadProfile(spec, scaleName, opt, func() trace.Source { return spec.Source(scale) })
	case req.TraceCSV != "":
		// The embedded trace is already in memory, so — unlike the
		// network streaming path — its content hash is cheap to take up
		// front (one decode pass, no profiling): repeat uploads hit the
		// cache without re-profiling, and because the key hashes the
		// canonical record stream rather than the raw bytes, a binary
		// (VTRC) upload of the same trace hits the same entry.
		sum, err := trace.CanonicalHash(trace.NewCSVStreamUnhashed(strings.NewReader(req.TraceCSV)))
		if err != nil {
			return nil, false, badRequestf("bad trace: %v", err)
		}
		res, hit, err := s.cachedProfile(opt.cacheKey("tr:"+sum), opt, &s.metrics.stageCSV, func() (trace.Source, TraceInfo, error) {
			// Unhashed: the identity was just taken above; a second
			// canonical fold would be pure waste.
			cs := trace.NewCSVStreamUnhashed(strings.NewReader(req.TraceCSV))
			info := cs.Info()
			return cs, TraceInfo{Name: info.Name, Abbr: info.Abbr, SHA256: sum}, nil
		})
		if err != nil && !errors.As(err, new(badRequestError)) {
			return nil, false, badRequestf("bad trace: %v", err)
		}
		return res, hit, err
	default:
		return nil, false, badRequestf("request needs a workload abbreviation or a trace")
	}
}

// ProfileStream profiles a CSV trace read from r in one pass: the body
// streams through decoder → coalescer → accumulator, so per-request
// memory is O(window × bits) plus one decode batch, independent of
// trace length, and the content hash accumulates incrementally as bytes
// are consumed. Decode errors are returned unwrapped so HTTP handlers
// can classify size-limit errors; the cache is keyed by the incremental
// canonical hash, exactly like the materialized upload path, so
// identical uploads still share one stored profile (the second return
// reports a hit).
func (s *Service) ProfileStream(r io.Reader, req ProfileRequest) (*ProfileResult, bool, error) {
	opt, err := req.options()
	if err != nil {
		return nil, false, err
	}
	return s.profileOneShot(trace.NewCSVStream(r), opt, &s.metrics.stageCSV)
}

// ProfileStreamBinary is ProfileStream for VTRC binary bodies. The two
// share cache entries: both key by the canonical record-stream hash, so
// a CSV upload and its binary conversion dedupe to one stored profile.
func (s *Service) ProfileStreamBinary(r io.Reader, req ProfileRequest) (*ProfileResult, bool, error) {
	opt, err := req.options()
	if err != nil {
		return nil, false, err
	}
	return s.profileOneShot(trace.NewBinaryStream(r), opt, &s.metrics.stageBinary)
}

// hashedTraceStream is the single-shot decoder shape the container
// formats share: a Stream that knows the trace's canonical content
// digest once drained.
type hashedTraceStream interface {
	trace.Stream
	SHA256() string
	Info() trace.SourceInfo
}

func (s *Service) profileOneShot(cs hashedTraceStream, opt profileOptions, stages *stageSet) (*ProfileResult, bool, error) {
	// One-shot pipelines take streamSem, not profileSem: they hold only
	// O(window × bits) but may read a client's body mid-compute, so
	// under profileSem a few slow transfers would starve every other
	// profile computation; unbounded, a burst of uploads would
	// oversubscribe the CPU. streamSem (4 × Workers slots) bounds the
	// burst while leaving profileSem's slots to the O(trace) builders.
	s.streamSem <- struct{}{}
	defer func() { <-s.streamSem }()
	prof, kernels, err := s.profilePipeline(cs, opt, stages)
	if err != nil {
		return nil, false, err
	}
	sum := cs.SHA256()
	info := cs.Info()
	key := opt.cacheKey("tr:" + sum)
	res := assembleResult(prof, TraceInfo{Name: info.Name, Abbr: info.Abbr, SHA256: sum, Kernels: kernels}, opt, key)
	// The profile had to be computed before the content hash was known
	// (the hash needs the whole body, the body is consumed exactly
	// once), so on this path a cache "hit" — in the response and in the
	// /metrics hit rate — means the stored entry was reused, not that
	// the compute was skipped: re-uploads dedupe storage, not work.
	// Clients that want compute-free repeats should re-request by
	// workload abbreviation or keep the returned profile.
	got, tier, err := s.cache.GetOrCompute(key, func() (*ProfileResult, error) { return res, nil })
	return got, tier != store.TierMiss, err
}

// profileFile profiles a trace file from the configured trace
// directory. Binary (VTRC) files take the restartable mmap zero-copy
// path and are keyed by the checksum read at open, so a cached profile
// costs one open + validate and no profiling pass; CSV files fall back
// to the one-shot streaming pipeline. Only bare file names inside
// TraceDir are accepted.
func (s *Service) profileFile(name string, opt profileOptions) (*ProfileResult, bool, error) {
	if s.cfg.TraceDir == "" {
		return nil, false, badRequestf("trace_file requires the service to be configured with a trace directory")
	}
	if name != filepath.Base(name) || name == "." || name == ".." {
		return nil, false, badRequestf("trace_file must be a bare file name inside the trace directory, got %q", name)
	}
	src, release, err := trace.OpenFile(filepath.Join(s.cfg.TraceDir, name))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, false, notFoundf("no trace file %q in the trace directory", name)
		}
		return nil, false, badRequestf("bad trace file %q: %v", name, err)
	}
	defer release() //nolint:errcheck // read-only mapping/handle
	if ms, ok := src.(*trace.MmapSource); ok {
		sum := ms.SHA256()
		return s.cachedProfile(opt.cacheKey("tr:"+sum), opt, &s.metrics.stageBinary, func() (trace.Source, TraceInfo, error) {
			info := ms.Info()
			return ms, TraceInfo{Name: info.Name, Abbr: info.Abbr, SHA256: sum}, nil
		})
	}
	res, hit, err := s.profileOneShot(src.(*trace.CSVStream), opt, &s.metrics.stageCSV)
	if err != nil && !errors.As(err, new(badRequestError)) {
		err = badRequestf("bad trace file %q: %v", name, err)
	}
	return res, hit, err
}

// ProfileTrace profiles an already-decoded trace under its content
// hash, for embedders that hold a materialized *App (Advise reuses it
// to profile one decode under many candidate mappings).
func (s *Service) ProfileTrace(app *trace.App, sha string, req ProfileRequest) (*ProfileResult, bool, error) {
	opt, err := req.options()
	if err != nil {
		return nil, false, err
	}
	return s.profileUpload(app, sha, opt)
}

// workloadProfile is the single owner of the built-in-workload cache-key
// format, shared by Profile and Advise so their entries always collide
// (advise reuses profiles /v1/profile already computed, and vice versa).
func (s *Service) workloadProfile(spec workload.Spec, scaleName string, opt profileOptions, source func() trace.Source) (*ProfileResult, bool, error) {
	key := opt.cacheKey("wl:" + spec.Abbr + ":" + scaleName)
	return s.cachedProfile(key, opt, &s.metrics.stageNative, func() (trace.Source, TraceInfo, error) {
		return source(), TraceInfo{Name: spec.Name, Abbr: spec.Abbr, Scale: scaleName}, nil
	})
}

func (s *Service) profileUpload(app *trace.App, sha string, opt profileOptions) (*ProfileResult, bool, error) {
	key := opt.cacheKey("tr:" + sha)
	return s.cachedProfile(key, opt, &s.metrics.stageNative, func() (trace.Source, TraceInfo, error) {
		return trace.AppSource(app), TraceInfo{Name: app.Name, Abbr: app.Abbr, SHA256: sha}, nil
	})
}

// cachedProfile computes a profile through the streaming pipeline under
// the cache's in-flight coalescing, bounded by the profile semaphore.
func (s *Service) cachedProfile(key string, opt profileOptions, stages *stageSet, build func() (trace.Source, TraceInfo, error)) (*ProfileResult, bool, error) {
	res, tier, err := s.cache.GetOrCompute(key, func() (*ProfileResult, error) {
		s.profileSem <- struct{}{}
		defer func() { <-s.profileSem }()
		src, info, err := build()
		if err != nil {
			return nil, err
		}
		prof, kernels, err := s.profilePipeline(src.Stream(), opt, stages)
		if err != nil {
			return nil, err
		}
		info.Kernels = kernels
		return assembleResult(prof, info, opt, key), nil
	})
	return res, tier != store.TierMiss, err
}

// kernelCounter counts kernel headers as they flow by, so TraceInfo can
// report the kernel count without materializing the trace. It is the
// single counting point for every service profile path (the decoder and
// accumulator deliberately do not keep their own counts).
type kernelCounter struct {
	s trace.Stream
	n int
}

func (k *kernelCounter) Next() (*trace.Batch, error) {
	b, err := k.s.Next()
	if err == nil && b.Kernel != nil {
		k.n++
	}
	return b, err
}

// profilePipeline drives one pass of the streaming hot path:
// stream → (coalesce) → (map) → online windowed accumulator.
// Each stage is wrapped in a TimedStream (exclusive per-batch wall
// time, nested stages subtracted) feeding the
// valleyd_stream_stage_seconds histogram under the ingest format's
// label set; the accumulator — not a Stream — reports through the fold
// hook instead.
func (s *Service) profilePipeline(st trace.Stream, opt profileOptions, stages *stageSet) (entropy.Profile, int, error) {
	kc := &kernelCounter{s: st}
	decode := trace.NewTimedStream(kc, nil, stages.decode.ObserveDuration)
	var in trace.Stream = decode
	if opt.lineBytes > 0 {
		in = trace.NewTimedStream(trace.CoalesceStream(in, opt.lineBytes), decode, stages.coalesce.ObserveDuration)
	}
	sopt := entropy.StreamOptions{
		Window: opt.window,
		Bits:   opt.bits,
		OnFold: stages.accumulate.ObserveDuration,
	}
	if opt.scheme != "" {
		m, err := mapping.New(opt.scheme, layout.HynixGDDR5(), mapping.Options{Seed: opt.seed})
		if err != nil {
			return entropy.Profile{}, 0, badRequestf("building %s mapper: %v", opt.scheme, err)
		}
		// The coalescer sees physical addresses (coalescing precedes the
		// mapper in hardware); the accumulator applies the BIM a batch
		// at a time.
		sopt.BatchTransform = m.MapBatch
	}
	prof, err := entropy.ProfileStream(in, sopt)
	if err != nil {
		return entropy.Profile{}, 0, err
	}
	return prof, kc.n, nil
}

func assembleResult(prof entropy.Profile, info TraceInfo, opt profileOptions, key string) *ProfileResult {
	info.Requests = prof.Requests
	l := layout.HynixGDDR5()
	// Bits below the block offset — and, when coalescing is on, below
	// the line size — are structurally zero: they carry no entropy by
	// construction, so they are excluded from valley classification,
	// the channel/bank means, and the reported ranges alike (otherwise
	// line_bytes >= 512 would zero channel bit 8 and flag a "valley"
	// for every trace).
	clipTop := len(l.FieldBits(layout.Block))
	if opt.lineBytes > 0 {
		if lineTop := bits.TrailingZeros64(uint64(opt.lineBytes)); lineTop > clipTop {
			clipTop = lineTop
		}
	}
	clip := func(positions []int) []int {
		out := positions[:0:0]
		for _, b := range positions {
			if b >= clipTop {
				out = append(out, b)
			}
		}
		return out
	}
	ch := clip(l.FieldBits(layout.Channel))
	bank := clip(l.FieldBits(layout.Bank))
	res := &ProfileResult{
		Trace:       info,
		Window:      opt.window,
		Bits:        opt.bits,
		LineBytes:   opt.lineBytes,
		Scheme:      string(opt.scheme),
		PerBit:      prof.PerBit,
		MeanChannel: prof.Mean(ch),
		MeanBank:    prof.Mean(bank),
		MinChanBank: prof.Min(append(append([]int(nil), ch...), bank...)),
		Valley:      prof.ChannelBankValley(ch, bank, valleyLow, valleyHigh),
		CacheKey:    key,
	}
	if opt.scheme != "" {
		res.Seed = opt.seed
	}
	res.ValleyRanges = []BitRange{}
	for _, r := range prof.ValleyRanges(valleyLow, valleyHigh) {
		if r.Hi < clipTop {
			continue
		}
		if r.Lo < clipTop {
			r.Lo = clipTop
		}
		res.ValleyRanges = append(res.ValleyRanges, BitRange{Lo: r.Lo, Hi: r.Hi})
	}
	return res
}

// ---------------------------------------------------------------------
// Mapping advice
// ---------------------------------------------------------------------

// AdviseRequest asks for a mapping recommendation. The trace inputs
// mirror ProfileRequest; Schemes/Seeds narrow the candidate set
// (defaults: PAE/FAE/ALL × seeds 1..3, the paper's BIM-1..BIM-3).
type AdviseRequest struct {
	ProfileRequest
	Schemes []string `json:"schemes,omitempty"`
	Seeds   []int64  `json:"seeds,omitempty"`
}

// Candidate is one evaluated scheme × seed pair.
type Candidate struct {
	Scheme      string     `json:"scheme"`
	Seed        int64      `json:"seed"`
	MeanChannel float64    `json:"mean_channel_entropy"`
	MeanBank    float64    `json:"mean_bank_entropy"`
	ChannelGain float64    `json:"channel_entropy_gain"`
	BankGain    float64    `json:"bank_entropy_gain"`
	Gain        float64    `json:"gain"`
	XORGates    int        `json:"xor_gates"`
	Depth       int        `json:"xor_depth"`
	BIM         bim.Matrix `json:"bim"`
}

// AdviseResult recommends a BIM for a trace.
type AdviseResult struct {
	Base        *ProfileResult `json:"base"`
	Recommended Candidate      `json:"recommended"`
	Candidates  []Candidate    `json:"candidates"`
}

// Advise profiles the trace under each candidate mapping and recommends
// the one with the highest channel+bank entropy gain; within 0.01 of
// the best, the cheapest XOR tree wins (hardware-minimal tiebreak).
func (s *Service) Advise(req AdviseRequest) (*AdviseResult, error) {
	if req.Scheme != "" {
		return nil, badRequestf("advise profiles the unmapped trace; leave scheme empty")
	}
	if req.Seed != 0 {
		return nil, badRequestf("advise evaluates candidates per seed; use seeds instead of seed")
	}
	schemes := []mapping.Scheme{mapping.PAE, mapping.FAE, mapping.ALL}
	if len(req.Schemes) > 0 {
		schemes = schemes[:0]
		for _, name := range req.Schemes {
			sc, err := lookupScheme(name)
			if err != nil {
				return nil, err
			}
			if sc == mapping.BASE {
				return nil, badRequestf("BASE is the identity mapping; it cannot be a candidate")
			}
			schemes = append(schemes, sc)
		}
	}
	seeds := []int64{1, 2, 3}
	if len(req.Seeds) > 0 {
		for _, seed := range req.Seeds {
			// Seed 0 would be silently renormalized to 1 when profiling
			// the candidate, so the returned BIM would not match its
			// reported gains.
			if seed <= 0 {
				return nil, badRequestf("seeds must be positive, got %d", seed)
			}
		}
		seeds = req.Seeds
	}

	// Build or decode the trace once and reuse it for the base profile
	// and every candidate, instead of re-constructing it per scheme ×
	// seed pair on a cold cache. Cache keys stay identical to the ones
	// /v1/profile uses, so advise and profile share entries.
	profile := func(r ProfileRequest) (*ProfileResult, bool, error) { return s.Profile(r) }
	switch {
	case req.TraceCSV != "" && req.Workload != "":
		return nil, badRequestf("give either workload or trace_csv, not both")
	case req.TraceFile != "" && (req.TraceCSV != "" || req.Workload != ""):
		return nil, badRequestf("trace_file cannot be combined with workload or trace_csv")
	case req.TraceCSV != "":
		app, sum, err := trace.ReadCSVHashed(strings.NewReader(req.TraceCSV))
		if err != nil {
			return nil, badRequestf("bad trace: %v", err)
		}
		profile = func(r ProfileRequest) (*ProfileResult, bool, error) {
			r.TraceCSV = ""
			return s.ProfileTrace(app, sum, r)
		}
	case req.Workload != "":
		spec, err := lookupWorkload(req.Workload)
		if err != nil {
			return nil, err
		}
		scale, scaleName, err := parseScale(req.Scale)
		if err != nil {
			return nil, err
		}
		// Materialize the trace once (under the first candidate's
		// semaphore slot) and stream the base + every candidate profile
		// from the in-memory copy, instead of re-running the generator
		// per scheme × seed pair on a cold cache.
		var (
			once sync.Once
			app  *trace.App
		)
		source := func() trace.Source {
			once.Do(func() { app = spec.Build(scale) })
			return trace.AppSource(app)
		}
		profile = func(r ProfileRequest) (*ProfileResult, bool, error) {
			opt, err := r.options()
			if err != nil {
				return nil, false, err
			}
			return s.workloadProfile(spec, scaleName, opt, source)
		}
	}

	base, _, err := profile(req.ProfileRequest)
	if err != nil {
		return nil, err
	}

	l := layout.HynixGDDR5()
	ch, bank := l.FieldBits(layout.Channel), l.FieldBits(layout.Bank)
	var cands []Candidate
	for _, sc := range schemes {
		// Deterministic schemes (PM, RMP) ignore the seed: evaluate once
		// under a fixed seed so repeat calls with different seed lists
		// share one cache entry, and report Seed 0 ("not applicable").
		scSeeds := seeds
		if sc == mapping.PM || sc == mapping.RMP {
			scSeeds = []int64{1}
		}
		for _, seed := range scSeeds {
			creq := req.ProfileRequest
			creq.Scheme = string(sc)
			creq.Seed = seed
			prof, _, err := profile(creq)
			if err != nil {
				return nil, err
			}
			m, err := mapping.New(sc, l, mapping.Options{Seed: seed})
			if err != nil {
				return nil, err
			}
			gates, depth := m.GateCost()
			candSeed := seed
			if sc == mapping.PM || sc == mapping.RMP {
				candSeed = 0
			}
			cand := Candidate{
				Scheme:      string(sc),
				Seed:        candSeed,
				MeanChannel: prof.MeanChannel,
				MeanBank:    prof.MeanBank,
				ChannelGain: prof.MeanChannel - base.MeanChannel,
				BankGain:    prof.MeanBank - base.MeanBank,
				XORGates:    gates,
				Depth:       depth,
				BIM:         m.Matrix(),
			}
			nCh, nBank := float64(len(ch)), float64(len(bank))
			cand.Gain = (cand.ChannelGain*nCh + cand.BankGain*nBank) / (nCh + nBank)
			cands = append(cands, cand)
		}
	}
	// Rank by gain; within 0.01 of the top gain, the cheapest XOR tree
	// wins (always measured against cands[0], so near-ties cannot chain
	// the recommendation further than 0.01 below the best).
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Gain > cands[j].Gain })
	best := cands[0]
	for _, c := range cands[1:] {
		if cands[0].Gain-c.Gain <= 0.01 && c.XORGates < best.XORGates {
			best = c
		}
	}
	return &AdviseResult{Base: base, Recommended: best, Candidates: cands}, nil
}

// ---------------------------------------------------------------------
// Simulation sweeps
// ---------------------------------------------------------------------

// SimulateRequest enqueues a workload × scheme sweep. Workloads lists
// Table II abbreviations, or Set names a group (valley, nonvalley,
// all). Config picks the simulated system: baseline (12 SMs), conv-24,
// conv-48, or 3d (64-SM 3D-stacked).
type SimulateRequest struct {
	Workloads []string `json:"workloads,omitempty"`
	Set       string   `json:"set,omitempty"`
	Schemes   []string `json:"schemes,omitempty"`
	Scale     string   `json:"scale,omitempty"`
	Seed      int64    `json:"seed,omitempty"`
	Config    string   `json:"config,omitempty"`
}

// CellResult is one workload × scheme simulation: the shared metric
// flattening of internal/experiments plus the sweep coordinates.
// Seconds is the cell's wall time inside this sweep. Cached reports
// that the metrics came from the simulation-result cache rather than a
// fresh simulation; a resident entry makes Seconds near zero, but a
// cell that joined another sweep's in-flight computation reports the
// full wait even though Cached is true.
type CellResult struct {
	Workload string  `json:"workload"`
	Scheme   string  `json:"scheme"`
	Speedup  float64 `json:"speedup,omitempty"`
	Seconds  float64 `json:"seconds"`
	Cached   bool    `json:"cached,omitempty"`
	experiments.ResultJSON
}

// SimulateResult aggregates a finished sweep. Speedups and HMeanSpeedup
// are present when BASE is among the schemes; Seconds is the sweep's
// total wall time from dispatch to aggregation.
type SimulateResult struct {
	Config       string             `json:"config"`
	Scale        string             `json:"scale"`
	Seed         int64              `json:"seed"`
	Workloads    []string           `json:"workloads"`
	Schemes      []string           `json:"schemes"`
	Cells        []CellResult       `json:"cells"`
	Seconds      float64            `json:"seconds"`
	HMeanSpeedup map[string]float64 `json:"hmean_speedup,omitempty"`
}

// simCell is what the simulation-result cache stores: the flattened
// metrics of one (workload, scale, scheme, config, seed) cell, plus the
// seconds the original simulation took — the cell's recompute cost,
// which drives cost-weighted eviction in both tiers and survives
// spills. Sweep-relative fields (speedup, per-sweep wall time) are
// recomputed per sweep. Fields are exported for the spill codec.
type simCell struct {
	Res     experiments.ResultJSON `json:"result"`
	Seconds float64                `json:"seconds"`
}

func simCellKey(abbr, scale string, sc mapping.Scheme, cfgName string, seed int64) string {
	return fmt.Sprintf("sim|%s|%s|%s|%s|%d", abbr, scale, sc, cfgName, seed)
}

func parseSimConfig(name string) (gpusim.Config, string, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "baseline", "conv-12":
		return gpusim.Baseline(), "baseline", nil
	case "conv-24":
		return gpusim.Conventional(24), "conv-24", nil
	case "conv-48":
		return gpusim.Conventional(48), "conv-48", nil
	case "3d", "stacked3d", "3d-64sm":
		return gpusim.Stacked3D(), "3d", nil
	default:
		return gpusim.Config{}, "", badRequestf("unknown config %q (want baseline, conv-24, conv-48 or 3d)", name)
	}
}

// resolveSweep validates req's vocabularies and lays its grid out as a
// sweep, every cell keyed, ready for admission and dispatch.
func resolveSweep(req SimulateRequest) (*sweep, error) {
	var specs []workload.Spec
	switch {
	case len(req.Workloads) > 0 && req.Set != "":
		return nil, badRequestf("give either workloads or set, not both")
	case len(req.Workloads) > 0:
		for _, abbr := range req.Workloads {
			spec, err := lookupWorkload(abbr)
			if err != nil {
				return nil, err
			}
			specs = append(specs, spec)
		}
	default:
		switch strings.ToLower(strings.TrimSpace(req.Set)) {
		case "valley":
			specs = workload.ValleySet()
		case "nonvalley", "non-valley":
			specs = workload.NonValleySet()
		case "all":
			specs = workload.Catalog()
		case "":
			return nil, badRequestf("request needs workloads or a set (valley, nonvalley, all)")
		default:
			return nil, badRequestf("unknown set %q (want valley, nonvalley or all)", req.Set)
		}
	}

	schemes := mapping.Schemes()
	if len(req.Schemes) > 0 {
		schemes = schemes[:0]
		for _, name := range req.Schemes {
			sc, err := lookupScheme(name)
			if err != nil {
				return nil, err
			}
			schemes = append(schemes, sc)
		}
	}

	sw, err := newSweep(req.Config, req.Scale, req.Seed)
	if err != nil {
		return nil, err
	}
	sw.addGrid(specs, schemes)
	return sw, nil
}

// lookupWorkload resolves a Table II abbreviation (HTTP 404 when unknown).
func lookupWorkload(abbr string) (workload.Spec, error) {
	spec, ok := workload.ByAbbr(abbr)
	if !ok {
		return workload.Spec{}, notFoundf("unknown workload %q (want one of %v)", abbr, workload.Abbrs())
	}
	return spec, nil
}

// lookupScheme resolves a mapping scheme name (HTTP 400 when unknown).
func lookupScheme(name string) (mapping.Scheme, error) {
	sc, err := mapping.ParseScheme(name)
	if err != nil {
		return "", badRequestf("unknown scheme %q (want one of %v)", name, mapping.Schemes())
	}
	return sc, nil
}

// Simulate validates the sweep, enqueues it on the worker pool and
// returns the queued job. Poll Job for progress and results.
func (s *Service) Simulate(req SimulateRequest) (Job, error) {
	return s.SimulateCtx(context.Background(), req)
}

// spanCapFor sizes a sweep's span ring: root + enqueue plus up to six
// spans per cell, floored so tiny sweeps never drop and capped so a
// full-catalog sweep cannot grow the ring past the obs default.
func spanCapFor(totalCells int) int {
	n := 2 + 6*totalCells
	if n < 64 {
		n = 64
	}
	if n > 4096 {
		n = 4096
	}
	return n
}

// SimulateCtx is Simulate with request-scoped observability: the job
// adopts the context's trace ID (obs.WithTraceID; one is minted when
// absent) and records a span trace — HTTP accept, enqueue, per-cell
// queue wait, trace build, engine run and cache put — served afterwards
// by GET /v1/jobs/{id}/trace and JobTrace.
func (s *Service) SimulateCtx(ctx context.Context, req SimulateRequest) (Job, error) {
	sw, err := resolveSweep(req)
	if err != nil {
		return Job{}, err
	}

	// Admission gate: price the sweep (uncached cells behind the current
	// backlog, via the EWMA cost model) against its deadline before
	// accepting it; fully-cached sweeps bypass a saturated pool inline.
	// The deadline instant comes from the request context — the HTTP
	// layer sets it from ?deadline_ms / X-Deadline-Ms or the daemon
	// default — and survives into the job context below even though the
	// request context itself dies with the handler.
	var deadline *time.Time
	if dl, ok := ctx.Deadline(); ok {
		t := dl.UTC()
		deadline = &t
	}
	sw.degraded, err = s.admitSweep(deadline, sw)
	if err != nil {
		return Job{}, err
	}

	// Register the dispatcher before creating the job, under closeMu:
	// once Close has flipped closed, no new sweep can slip past its
	// sweepWG.Wait, so the shutdown spill always sees every accepted
	// job in a terminal state.
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return Job{}, overloadedError{msg: "service shutting down"}
	}
	s.sweepWG.Add(1)
	s.closeMu.Unlock()

	traceID := obs.TraceID(ctx)
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	total := len(sw.cells)
	sw.tr = obs.NewTrace(traceID, spanCapFor(total))
	// The root span starts at the HTTP accept instant when the handler
	// recorded one, so accept-to-enqueue time is visible in the tree.
	sw.root = sw.tr.StartAt(0, "job", obs.AcceptTime(ctx),
		obs.Attr{Key: "kind", Value: "simulate"},
		obs.Attr{Key: "config", Value: sw.cfgName},
		obs.Attr{Key: "scale", Value: sw.scaleName},
	)
	enq := sw.tr.Start(sw.root.ID(), "enqueue")
	job, err := s.jobs.create("simulate", total, sw.tr)
	if err != nil {
		s.sweepWG.Done()
		return Job{}, overloadedError{msg: err.Error(), retryAfter: s.retryAfterHint()}
	}
	enq.Annotate(obs.Attr{Key: "job_id", Value: job.ID})
	enq.End()
	s.metrics.jobsEnqueued.Add(1)
	sw.jobID = job.ID
	sw.log = s.log

	// The job context outlives the request: values (trace ID, logger)
	// carry over, the request's cancellation does not — a 202 job must
	// survive its handler returning — and the deadline instant is
	// re-applied. The cancel function is armed in the store so DELETE,
	// stream disconnects and Close-side cleanup can fire it with a cause.
	jobCtx, cancelJob := context.WithCancelCause(context.WithoutCancel(ctx))
	release := func() { cancelJob(nil) }
	if deadline != nil {
		var cancelT context.CancelFunc
		jobCtx, cancelT = context.WithDeadline(jobCtx, *deadline)
		release = func() { cancelT(); cancelJob(nil) }
	}
	s.jobs.arm(job.ID, cancelJob, deadline)

	// The dispatcher goroutine owns the job lifecycle: it fans cells out
	// over the pool (blocking on the bounded queue for backpressure),
	// waits, aggregates and finishes the job. The HTTP handler returns
	// the queued job immediately.
	// Snapshot before the dispatcher starts mutating the stored job; if
	// the sweep finishes and is evicted under churn before we re-read,
	// this creation-time copy is still a valid handle for the client.
	created := *job
	go s.runSweep(jobCtx, release, sw)
	if snap, ok := s.jobs.get(job.ID); ok {
		return snap, nil
	}
	return created, nil
}

// CancelJob cancels an in-flight job with the given reason; the job
// terminates with a canceled event once its running cells observe the
// dead context (bounded by the engine's checkpoint interval). It
// reports whether the job is known; canceling an already-terminal job
// is a no-op that still reports true.
func (s *Service) CancelJob(id, reason string) bool {
	if reason == "" {
		reason = "canceled by request"
	}
	return s.jobs.cancel(id, fmt.Errorf("%w: %s", context.Canceled, reason))
}

// runnerPool shares gpusim.Runners (engine slab, request pools, program
// buffers) across sweep cells. Runner reuse is bit-deterministic — see
// internal/sim's determinism contract — so cells drawing warm runners
// produce the same Results as cold ones.
var runnerPool = sync.Pool{New: func() any { return gpusim.NewRunner() }}

// sharedApp materializes one workload trace at most once per sweep and
// shares it across that workload's scheme cells. The *trace.App is
// strictly read-only after Build (gpusim.Runner.Run documents the
// contract), which is what makes sharing across pool workers safe; the
// request-count assertion below backstops it.
type sharedApp struct {
	once sync.Once
	app  *trace.App
	reqs int
}

func (sa *sharedApp) get(sp workload.Spec, scale workload.Scale) *trace.App {
	sa.once.Do(func() {
		sa.app = sp.Build(scale)
		sa.reqs = sa.app.Requests()
	})
	return sa.app
}

// runSweep is the dispatcher goroutine that owns one job's lifecycle:
// it fans cells onto the pool (or runs them inline in degraded mode),
// waits, aggregates and publishes the terminal event. ctx is the job
// context — cancellation or deadline expiry stops fan-out, skips queued
// cells, interrupts running engines at their checkpoint interval and
// terminates the job with a canceled/deadline_exceeded event. release
// frees the job context's resources when the sweep ends.
func (s *Service) runSweep(ctx context.Context, release func(), sw *sweep) {
	defer s.sweepWG.Done()
	defer release()
	defer sw.root.End()
	start := time.Now()
	jobID, result := sw.jobID, sw.result
	s.jobs.setRunning(jobID)
	if sw.degraded {
		s.metrics.degradedSweeps.Add(1)
		sw.root.Annotate(obs.Attr{Key: "degraded", Value: "true"})
	}
	var (
		errMu    sync.Mutex
		firstErr error
	)
	sw.fail = func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	// deliver publishes each finished cell on the job's event stream
	// the moment it lands (streaming clients see it before job
	// completion) and files it into its dense grid slot. Cells
	// never collide on a slot — each cell executes exactly once
	// per sweep, whichever dispatcher ran it — so the writes are safe
	// without a lock.
	sw.deliver = func(c *cell, done CellResult) {
		result.Cells[c.slot] = done
		s.jobs.cellDone(jobID, done)
	}
	// Dispatch: cluster-sharded when a peer set is configured and at
	// least one peer is reachable, local otherwise. Degraded sweeps
	// (fully cached, pool saturated) always run locally — their value
	// is answering from the local cache without queueing.
	handled := false
	if !sw.degraded && s.cfg.Cluster != nil {
		handled = s.dispatchCluster(ctx, sw)
	}
	if !handled {
		s.fanOut(ctx, sw, sw.cells)
	}
	elapsed := time.Since(start)
	s.metrics.sweepMicros.Add(elapsed.Microseconds())
	if cause := context.Cause(ctx); cause != nil {
		// Cancellation outranks any cell error it induced: a canceled
		// sweep's cells fail with context errors, but the job's terminal
		// state should say "canceled", not "failed".
		s.metrics.jobsCanceled.Add(1)
		s.jobs.finish(jobID, nil, cause)
		s.log.Info("sweep canceled",
			"job_id", jobID, "trace_id", sw.tr.ID(),
			"done_cells", countDone(result), "duration_ms", elapsed.Milliseconds(),
			"cause", cause)
		return
	}
	if firstErr != nil {
		s.metrics.jobsFailed.Add(1)
		s.jobs.finish(jobID, nil, firstErr)
		s.log.Warn("sweep failed",
			"job_id", jobID, "trace_id", sw.tr.ID(),
			"duration_ms", elapsed.Milliseconds(), "error", firstErr)
		return
	}
	result.Seconds = elapsed.Seconds()
	aggregateSweep(result)
	s.metrics.jobsDone.Add(1)
	s.jobs.finish(jobID, result, nil)
	s.log.Debug("sweep done",
		"job_id", jobID, "trace_id", sw.tr.ID(),
		"cells", len(result.Cells), "duration_ms", elapsed.Milliseconds())
}

// countDone counts the cells that actually landed in a (possibly
// partially executed) sweep: filled slots carry their workload abbr.
func countDone(r *SimulateResult) int {
	n := 0
	for i := range r.Cells {
		if r.Cells[i].Workload != "" {
			n++
		}
	}
	return n
}

// aggregateSweep fills speedups vs BASE and per-scheme harmonic means
// when the sweep includes the BASE scheme.
func aggregateSweep(r *SimulateResult) {
	baseTime := map[string]int64{}
	for _, c := range r.Cells {
		if c.Scheme == string(mapping.BASE) {
			baseTime[c.Workload] = c.ExecTimePS
		}
	}
	if len(baseTime) == 0 {
		return
	}
	perScheme := map[string][]float64{}
	for i := range r.Cells {
		c := &r.Cells[i]
		if b, ok := baseTime[c.Workload]; ok && c.ExecTimePS > 0 {
			c.Speedup = float64(b) / float64(c.ExecTimePS)
			perScheme[c.Scheme] = append(perScheme[c.Scheme], c.Speedup)
		}
	}
	r.HMeanSpeedup = map[string]float64{}
	for sc, xs := range perScheme {
		r.HMeanSpeedup[sc] = experiments.HarmonicMean(xs)
	}
}

// Job returns a snapshot of the named job.
func (s *Service) Job(id string) (Job, bool) { return s.jobs.get(id) }

// JobEvents subscribes to the named job's event stream, replaying
// retained events with Seq >= from (pass 0 for the full history —
// start, every finished cell, then done/failed). It reports false for
// unknown or evicted jobs. Callers must Close the subscription.
func (s *Service) JobEvents(id string, from int) (*JobSubscription, bool) {
	return s.jobs.subscribe(id, from)
}

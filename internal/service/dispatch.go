package service

// The cell-execution core and the dispatch layer. A sweep is one
// value: the coordinates its cells share (config, scale, seed), its
// resolved cells and the sinks their outcomes flow into. executeCell
// is the transport-agnostic heart: one cell through the two-tier
// cache, the pooled engine and the admission cost model. fanOut is the
// only way cells reach the worker pool, and cellTask the one wrapper
// they run in, whether the sweep is a local job, a cluster
// coordinator's last-resort fallback (cluster_dispatch.go) or a
// worker-side /v1/cells batch (cluster_http.go).

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"valleymap/internal/cache"
	"valleymap/internal/experiments"
	"valleymap/internal/fault"
	"valleymap/internal/gpusim"
	"valleymap/internal/mapping"
	"valleymap/internal/obs"
	"valleymap/internal/workload"
)

// errClosed is the sweep-visible form of a pool refusing work during
// shutdown.
var errClosed = errors.New("service shutting down")

// sweep is what stays fixed for every cell of one job: the resolved
// config, scale and seed, the cells themselves with their shared trace
// slots, the observability context, and the deliver/fail sinks the
// cells' outcomes are routed into. A worker-side batch is a sweep
// without a job: jobID and result stay empty and tr is nil (the obs
// API is nil-safe), so its cells record no spans.
type sweep struct {
	jobID     string
	cfg       gpusim.Config
	cfgName   string
	scale     workload.Scale
	scaleName string
	seed      int64
	result    *SimulateResult
	cells     []*cell
	// apps holds one shared trace slot per workload, so a workload's
	// scheme cells materialize its trace once.
	apps map[string]*sharedApp
	tr   *obs.Trace
	root obs.SpanRef
	// log receives cell panic reports: the service logger for jobs, the
	// request logger (which carries the coordinator's trace_id) for
	// worker batches.
	log *slog.Logger
	// degraded runs every cell inline on the dispatching goroutine.
	degraded bool
	deliver  func(c *cell, done CellResult)
	fail     func(error)
}

// cell is one resolved sweep cell. key is its sim-cache key, computed
// once at resolution; admission, rendezvous ranking and the cache
// lookup all read it.
type cell struct {
	// slot indexes the sweep result's dense cell grid (row-major
	// workload × scheme), or the request order of a worker batch.
	slot int
	sp   workload.Spec
	sc   mapping.Scheme
	sa   *sharedApp
	key  string
	// tried records the peers that already failed this cell during
	// cluster dispatch.
	tried map[string]bool
}

// newSweep resolves the coordinates every cell of a sweep shares —
// config, scale and seed (0 = 1) — for /v1/simulate and /v1/cells
// alike.
func newSweep(config, scale string, seed int64) (*sweep, error) {
	cfg, cfgName, err := parseSimConfig(config)
	if err != nil {
		return nil, err
	}
	sc, scaleName, err := parseScale(scale)
	if err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = 1
	}
	return &sweep{
		cfg: cfg, cfgName: cfgName,
		scale: sc, scaleName: scaleName,
		seed: seed,
		apps: map[string]*sharedApp{},
	}, nil
}

// addCell resolves (sp, sc) into the sweep's next slot, binding the
// workload's shared trace slot and the cell's sim-cache key.
func (sw *sweep) addCell(sp workload.Spec, sc mapping.Scheme) {
	sa := sw.apps[sp.Abbr]
	if sa == nil {
		sa = &sharedApp{}
		sw.apps[sp.Abbr] = sa
	}
	sw.cells = append(sw.cells, &cell{
		slot: len(sw.cells), sp: sp, sc: sc, sa: sa,
		key: simCellKey(sp.Abbr, sw.scaleName, sc, sw.cfgName, sw.seed),
	})
}

// addGrid lays the specs × schemes grid out as the sweep's cells in
// row-major order and sizes the job result to match.
func (sw *sweep) addGrid(specs []workload.Spec, schemes []mapping.Scheme) {
	sw.result = &SimulateResult{
		Config: sw.cfgName,
		Scale:  sw.scaleName,
		Seed:   sw.seed,
		Cells:  make([]CellResult, len(specs)*len(schemes)),
	}
	sw.cells = make([]*cell, 0, len(specs)*len(schemes))
	for _, sp := range specs {
		sw.result.Workloads = append(sw.result.Workloads, sp.Abbr)
		for _, sc := range schemes {
			sw.addCell(sp, sc)
		}
	}
	for _, sc := range schemes {
		sw.result.Schemes = append(sw.result.Schemes, string(sc))
	}
}

// executeCell runs one sweep cell through the cache-backed execution
// core: chaos seams, shared trace build, mapper, pooled engine run,
// GetOrCompute with in-flight coalescing (retried when a joined
// computation dies with someone else's context error), and the
// hit/miss metrics and admission-cost accounting. Stage spans nest
// under span; the returned CellResult is complete except for span
// annotations, which the caller owns. Context errors come back
// unwrapped; a panic inside the compute closure surfaces as a
// cache.PanicError, already logged and counted.
func (s *Service) executeCell(ctx context.Context, sw *sweep, c *cell, span obs.SpanRef) (CellResult, error) {
	cellStart := time.Now()
	// putSpan covers the cache insert after the compute closure
	// returns; it stays the inert zero SpanRef on cache hits.
	var putSpan obs.SpanRef
	compute := func() (*simCell, error) {
		// Chaos seams: a wedged worker stalls here; an induced
		// cell panic exercises the PanicError recovery path.
		fault.Sleep(fault.WorkerDelay)
		if fault.Fail(fault.CellPanic) {
			panic("injected cell panic")
		}
		simStart := time.Now()
		build := sw.tr.Start(span.ID(), "trace_build")
		app := c.sa.get(c.sp, sw.scale)
		build.End()
		m := mapping.MustNew(c.sc, sw.cfg.Layout, mapping.Options{Seed: sw.seed})
		r := runnerPool.Get().(*gpusim.Runner)
		eng := sw.tr.Start(span.ID(), "engine_run")
		var setup, kernels, collect time.Duration
		r.SetStageObserver(func(stage string, d time.Duration) {
			switch stage {
			case gpusim.StageSetup:
				setup = d
			case gpusim.StageKernels:
				kernels = d
			case gpusim.StageCollect:
				collect = d
			}
		})
		// The engine polls ctx between bounded event batches,
		// so an abandoned or expired sweep frees this worker
		// slot mid-cell within the checkpoint interval.
		res, runErr := r.RunCtx(ctx, app, m, sw.cfg)
		r.SetStageObserver(nil)
		eng.Annotate(
			obs.Attr{Key: "setup_us", Value: strconv.FormatInt(setup.Microseconds(), 10)},
			obs.Attr{Key: "kernels_us", Value: strconv.FormatInt(kernels.Microseconds(), 10)},
			obs.Attr{Key: "collect_us", Value: strconv.FormatInt(collect.Microseconds(), 10)},
		)
		eng.End()
		runnerPool.Put(r)
		if runErr != nil {
			return nil, runErr
		}
		// The shared build must come back untouched, or it
		// would poison this workload's remaining cells and
		// every later sweep holding the same pointer.
		if got := c.sa.app.Requests(); got != c.sa.reqs {
			return nil, fmt.Errorf("simulating %s under %s mutated the shared trace: %d requests became %d", c.sp.Abbr, c.sc, c.sa.reqs, got)
		}
		putSpan = sw.tr.Start(span.ID(), "cache_put")
		return &simCell{Res: experiments.FlattenResult(res), Seconds: time.Since(simStart).Seconds()}, nil
	}
	var (
		cached *simCell
		tier   cache.Tier
		err    error
	)
	for attempt := 0; ; attempt++ {
		cached, tier, err = s.simCache.GetOrCompute(c.key, compute)
		// In-flight coalescing wrinkle: joining another sweep's
		// computation means inheriting its context error if that
		// sweep is canceled. While our own job is still alive,
		// retry — canceled computations are never cached, so the
		// retry computes fresh under our live context.
		if err == nil || ctx.Err() != nil || attempt >= 2 || !isContextErr(err) {
			break
		}
	}
	putSpan.End()
	if err != nil {
		// A panic inside the compute closure surfaces as a
		// cache.PanicError (the cache recovers it to keep the
		// in-flight coalescing sane); account for it as a crash
		// with the stack from the panic site. Context errors are the
		// caller's to classify quietly.
		var pe *cache.PanicError
		if errors.As(err, &pe) {
			s.logCellPanic(sw, c, pe.Value, pe.Stack)
		}
		return CellResult{}, err
	}
	// A spill-tier hit is a hit: the cell came from the cache,
	// not the simulator, whichever tier held it.
	hit := tier != cache.TierMiss
	done := CellResult{
		Workload:   c.sp.Abbr,
		Scheme:     string(c.sc),
		Seconds:    time.Since(cellStart).Seconds(),
		Cached:     hit,
		ResultJSON: cached.Res,
	}
	s.metrics.cellSeconds.Observe(done.Seconds)
	if !hit {
		s.metrics.cellsSimulated.Add(1)
		// Feed the admission cost model with the measured
		// simulation seconds (cache hits measure the cache,
		// not the simulator, and are skipped).
		s.costs.observe(sw.cfgName, sw.scaleName, cached.Seconds)
	}
	return done, nil
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// logCellPanic counts and logs one recovered cell panic with the stack
// from its panic site. Job cells name their job and trace; a worker
// batch's request logger already carries the coordinator's trace_id.
func (s *Service) logCellPanic(sw *sweep, c *cell, v any, stack []byte) {
	s.metrics.WorkerPanic()
	log := sw.log
	if sw.tr != nil {
		log = log.With("job_id", sw.jobID, "trace_id", sw.tr.ID())
	}
	log.Error("sweep cell panic recovered",
		"workload", c.sp.Abbr,
		"scheme", string(c.sc),
		"panic", fmt.Sprint(v),
		"stack", string(stack),
	)
}

// cellTask wraps one cell for pool submission: queue-wait accounting,
// the cell span with its queue_wait child, a panic backstop, and the
// routing of the outcome into the sweep's deliver/fail sinks.
func (s *Service) cellTask(ctx context.Context, sw *sweep, c *cell, wg *sync.WaitGroup) func() {
	submitAt := time.Now()
	return func() {
		defer wg.Done()
		if ctx.Err() != nil {
			// Canceled while queued: free the worker slot without
			// paying for the cell.
			return
		}
		cellStart := time.Now()
		s.metrics.queueWait.ObserveDuration(cellStart.Sub(submitAt))
		cellSpan := sw.tr.StartAt(sw.root.ID(), "cell", submitAt,
			obs.Attr{Key: "workload", Value: c.sp.Abbr},
			obs.Attr{Key: "scheme", Value: string(c.sc)},
		)
		qw := sw.tr.StartAt(cellSpan.ID(), "queue_wait", submitAt)
		qw.EndAt(cellStart)
		defer func() {
			if r := recover(); r != nil {
				s.logCellPanic(sw, c, r, debug.Stack())
				cellSpan.Annotate(obs.Attr{Key: "panic", Value: fmt.Sprint(r)})
				cellSpan.End()
				sw.fail(fmt.Errorf("simulating %s under %s: %v", c.sp.Abbr, c.sc, r))
			}
		}()
		done, err := s.executeCell(ctx, sw, c, cellSpan)
		if isContextErr(err) {
			// Our own cancellation (or an unlucky triple join on
			// other dying sweeps): record it quietly; the dispatcher
			// publishes the terminal event.
			sw.fail(err)
			cellSpan.Annotate(obs.Attr{Key: "canceled", Value: "true"})
			cellSpan.End()
			return
		}
		if err != nil {
			var pe *cache.PanicError
			if errors.As(err, &pe) {
				cellSpan.Annotate(obs.Attr{Key: "panic", Value: fmt.Sprint(pe.Value)})
			}
			sw.fail(err)
			cellSpan.Annotate(obs.Attr{Key: "error", Value: err.Error()})
			cellSpan.End()
			return
		}
		cellSpan.Annotate(obs.Attr{Key: "cached", Value: strconv.FormatBool(done.Cached)})
		cellSpan.End()
		sw.deliver(c, done)
	}
}

// fanOut submits one cellTask per cell to the worker pool — or, for a
// degraded sweep, runs each inline on the calling goroutine, so cached
// results stay servable under overload without queueing behind real
// simulation work — and blocks until every submitted cell has
// finished.
func (s *Service) fanOut(ctx context.Context, sw *sweep, cells []*cell) {
	var wg sync.WaitGroup
	for _, c := range cells {
		if ctx.Err() != nil {
			// Canceled mid-fan-out: stop submitting. Cells already
			// queued or running drain through their own ctx checks.
			break
		}
		wg.Add(1)
		task := s.cellTask(ctx, sw, c, &wg)
		if sw.degraded {
			task()
			continue
		}
		if !s.pool.submit(task) {
			wg.Done()
			sw.fail(errClosed)
			// The pool only refuses when it is closed; later submits
			// would just fail the same way, so stop fanning out.
			break
		}
	}
	wg.Wait()
}

package main

// Library references and replays: the same computations the daemon
// serves, run through the public library entry points in this process.
// Output checks compare responses against them; traced runs also time
// them stage by stage.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"valleymap/internal/entropy"
	"valleymap/internal/experiments"
	"valleymap/internal/gpusim"
	"valleymap/internal/mapping"
	"valleymap/internal/trace"
	"valleymap/internal/workload"
)

// profileOpts mirrors the daemon's profile options after defaults.
type profileOpts struct {
	window, bits, lineBytes int
	scheme                  mapping.Scheme
	seed                    int64
}

func defaultProfileOpts() profileOpts { return profileOpts{window: 12, bits: 30, lineBytes: 128} }

// stageTimes is one profile pass split by stage.
type stageTimes struct {
	decode, coalesce, accumulate, mapping time.Duration
	rows, requests                        int
}

// profilePass runs the daemon's profile pipeline — decode, coalesce,
// (map), windowed accumulator — over st with the library's own stages,
// timing each. Decode covers whatever produces st: a container decoder
// or a workload generator.
func profilePass(st trace.Stream, o profileOpts) (entropy.Profile, stageTimes, error) {
	var t stageTimes
	counted := &rowCounter{s: st, rows: &t.rows}
	decode := trace.NewTimedStream(counted, nil, func(d time.Duration) { t.decode += d })
	var in trace.Stream = decode
	if o.lineBytes > 0 {
		in = trace.NewTimedStream(trace.CoalesceStream(decode, o.lineBytes), decode, func(d time.Duration) { t.coalesce += d })
	}
	sopt := entropy.StreamOptions{Window: o.window, Bits: o.bits, OnFold: func(d time.Duration) { t.accumulate += d }}
	if o.scheme != "" {
		m, err := mapping.New(o.scheme, gpusim.Baseline().Layout, mapping.Options{Seed: o.seed})
		if err != nil {
			return entropy.Profile{}, t, err
		}
		sopt.BatchTransform = func(addrs []uint64) {
			t0 := time.Now()
			m.MapBatch(addrs)
			t.mapping += time.Since(t0)
		}
	}
	prof, err := entropy.ProfileStream(in, sopt)
	t.requests = prof.Requests
	// The accumulator's fold hook times the transform too.
	t.accumulate -= t.mapping
	return prof, t, err
}

// rowCounter counts the raw requests a stream yields.
type rowCounter struct {
	s    trace.Stream
	rows *int
}

func (r *rowCounter) Next() (*trace.Batch, error) {
	b, err := r.s.Next()
	if err == nil {
		*r.rows += len(b.Requests)
	}
	return b, err
}

// simCellRef computes one sweep cell as the daemon does and flattens it
// like a served cell.
func simCellRef(abbr string, scale workload.Scale, sc mapping.Scheme, seed int64) (experiments.ResultJSON, error) {
	sp, ok := workload.ByAbbr(abbr)
	if !ok {
		return experiments.ResultJSON{}, fmt.Errorf("unknown workload %q", abbr)
	}
	cfg := gpusim.Baseline()
	m, err := mapping.New(sc, cfg.Layout, mapping.Options{Seed: seed})
	if err != nil {
		return experiments.ResultJSON{}, err
	}
	return experiments.FlattenResult(gpusim.NewRunner().Run(sp.Build(scale), m, cfg)), nil
}

// cellKey names a cell for reference lookups. BASE and PM ignore the
// seed, so their references are shared across seeds.
func cellKey(abbr, scheme string, seed int64) string {
	if scheme == string(mapping.BASE) || scheme == string(mapping.PM) {
		seed = 0
	}
	return fmt.Sprintf("%s/%s/%d", abbr, scheme, seed)
}

// simRefs returns the reference of every key at scale. Keys an earlier
// round already computed are reused; the rest run on nproc goroutines.
// Called only from the run's own goroutine, between windows.
func (b *bench) simRefs(keys []cellRefKey, scale workload.Scale) (map[string]experiments.ResultJSON, error) {
	if b.refs == nil {
		b.refs = map[workload.Scale]map[string]experiments.ResultJSON{}
	}
	out := b.refs[scale]
	if out == nil {
		out = map[string]experiments.ResultJSON{}
		b.refs[scale] = out
	}
	var todo []cellRefKey
	for _, k := range keys {
		if _, ok := out[cellKey(k.abbr, k.scheme, k.seed)]; !ok {
			todo = append(todo, k)
		}
	}
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	work := make(chan cellRefKey)
	for i := 0; i < b.nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				r, err := simCellRef(k.abbr, scale, mapping.Scheme(k.scheme), k.seed)
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				out[cellKey(k.abbr, k.scheme, k.seed)] = r
				mu.Unlock()
			}
		}()
	}
	for _, k := range todo {
		work <- k
	}
	close(work)
	wg.Wait()
	return out, first
}

type cellRefKey struct {
	abbr, scheme string
	seed         int64
}

// replayStats collects a traced run's library replays: per-stage time
// and work counts, and the per-request layer estimates the wall-time
// ledger places inside handler spans.
type replayStats struct {
	decodeNS   map[string]float64 // by container: csv, binary, mmap
	decodeRows map[string]float64
	coalesceNS, coalesceRows,
	accumulateNS, accumulateReqs float64
	candidateMS []float64

	simKernelNS, simInstr, simTx, simAllocs, simBytes, simCells float64

	speedup float64 // cluster-sweep: single-node median over cluster median

	// estimates maps an op's replayKey to its time per layer.
	estimates map[string]*[numLayers]time.Duration
}

func newReplayStats() *replayStats {
	return &replayStats{decodeNS: map[string]float64{}, decodeRows: map[string]float64{}, estimates: map[string]*[numLayers]time.Duration{}}
}

// addProfile folds one timed pass into the per-row figures. container
// is "" for generator-fed passes, whose decode is the workload layer.
func (rp *replayStats) addProfile(container string, t stageTimes) {
	if container != "" {
		rp.decodeNS[container] += float64(t.decode)
		rp.decodeRows[container] += float64(t.rows)
	}
	rp.coalesceNS += float64(t.coalesce)
	rp.coalesceRows += float64(t.rows)
	rp.accumulateNS += float64(t.accumulate)
	rp.accumulateReqs += float64(t.requests)
}

// estimate records the layer split of one request kind; decodeLayer
// says which layer produced the stream.
func (rp *replayStats) estimate(key string, decodeLayer int, t stageTimes) {
	e := new([numLayers]time.Duration)
	e[decodeLayer] += t.decode
	e[layerTrace] += t.coalesce
	e[layerEntropy] += t.accumulate
	e[layerMapping] += t.mapping
	rp.estimates[key] = e
}

// replayCells runs cells on one Runner on this goroutine, recording
// simulator time per instruction and transaction and the heap
// allocations per cell.
func (rp *replayStats) replayCells(abbrs []string, scale workload.Scale, sc mapping.Scheme) {
	cfg := gpusim.Baseline()
	r := gpusim.NewRunner()
	var kernels time.Duration
	r.SetStageObserver(func(stage string, d time.Duration) {
		if stage == gpusim.StageKernels {
			kernels += d
		}
	})
	for _, abbr := range abbrs {
		sp, ok := workload.ByAbbr(abbr)
		if !ok {
			continue
		}
		app := sp.Build(scale)
		m := mapping.MustNew(sc, cfg.Layout, mapping.Options{Seed: 1})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := r.Run(app, m, cfg)
		runtime.ReadMemStats(&after)
		rp.simAllocs += float64(after.Mallocs - before.Mallocs)
		rp.simBytes += float64(after.TotalAlloc - before.TotalAlloc)
		rp.simInstr += float64(res.Instructions)
		rp.simTx += float64(res.Transactions)
		rp.simCells++
	}
	rp.simKernelNS += float64(kernels)
}

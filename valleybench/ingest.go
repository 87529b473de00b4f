package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"valleymap/internal/mapping"
	"valleymap/internal/service"
	"valleymap/internal/trace"
	"valleymap/internal/workload"
)

// ingest: nproc clients profiling pre-generated traces in three
// containers, built-in workloads and mapping advice. Each container
// profiles with its own bit count (csv 30, vtrc 31, mmap 32), so each
// gets its own cache entry and every answer comes from that container's
// decoder.

type ingestTrace struct {
	name       string
	abbr       string
	scale      workload.Scale
	csv, vtrc  string
	csvSize    int64
	vtrcSize   int64
	containers map[string]*profileRecord // first answer per container
}

// profileRecord is the first answer to one kind of profile request and
// the op that received it.
type profileRecord struct {
	o   *op
	res service.ProfileResult
	// repeats are the later ops that received the same answer; they
	// fail with the first if it is wrong.
	repeats []*op
}

func (r *profileRecord) fail(err error) {
	fail(r.o, err)
	for _, o := range r.repeats {
		fail(o, err)
	}
}

type profileResp struct {
	service.ProfileResult
	CacheHit bool `json:"cache_hit"`
}

var (
	ingestAbbrs   = []string{"MT", "SC", "NN"}
	ingestScales  = []workload.Scale{workload.Small, workload.Full}
	builtinAbbrs  = []string{"MT", "SC", "SP", "NN"}
	adviseAbbrs   = []string{"MT", "SC"}
	containerBits = map[string]int{"csv": 30, "binary": 31, "mmap": 32}
)

// coldSample bounds how many fresh built-in profiles are re-checked
// against the library after the window.
const coldSample = 4

type ingest struct {
	ns     nodes
	traces []*ingestTrace
	hot    []profileRecord // warm built-in profile requests
	hotReq []service.ProfileRequest
	advise []*service.AdviseResult // warm advice, by adviseAbbrs index

	mu   sync.Mutex
	cold []coldProfile
}

type coldProfile struct {
	o   *op
	req service.ProfileRequest
	res service.ProfileResult
}

func (s *ingest) nodes() nodes { return s.ns }
func (s *ingest) close()       { s.ns.close() }

func (s *ingest) setup(b *bench) error {
	dir, err := b.runDir(fmt.Sprintf("traces-%d", time.Now().UnixNano()))
	if err != nil {
		return err
	}
	n, err := startNode("single", service.Config{Workers: b.nproc, TraceDir: dir}, b.tracer)
	if err != nil {
		return err
	}
	s.ns = nodes{n}
	if err := waitReady(b, n); err != nil {
		return err
	}
	return s.prepare(b, dir)
}

// prepare writes the traces into dir, the node's trace directory, and
// warms the node's caches: each trace's trace_file profile, the warm
// built-in profiles and the warm advice.
func (s *ingest) prepare(b *bench, dir string) error {
	for _, abbr := range ingestAbbrs {
		for _, scale := range ingestScales {
			t, err := writeTrace(dir, abbr, scale)
			if err != nil {
				return err
			}
			s.traces = append(s.traces, t)
		}
	}
	c := b.setupClient()
	base := s.ns[0].url
	for _, t := range s.traces {
		if o := s.mmap(c, t); o.err != nil {
			return fmt.Errorf("warming %s: %w", t.name, o.err)
		}
	}
	for _, abbr := range builtinAbbrs[:3] {
		for _, req := range []service.ProfileRequest{
			{Workload: abbr, Window: 12},
			{Workload: abbr, Window: 16, Scheme: "PAE", Seed: 2},
		} {
			var res profileResp
			o := c.newOp("profile.builtin")
			c.call(o, "POST", base+"/v1/profile", "application/json", jsonBody(req), decodeInto(&res))
			if o.err != nil {
				return fmt.Errorf("warming %s: %w", abbr, o.err)
			}
			s.hot = append(s.hot, profileRecord{o: o, res: res.ProfileResult})
			s.hotReq = append(s.hotReq, req)
		}
	}
	for _, abbr := range adviseAbbrs {
		res := new(service.AdviseResult)
		o := c.newOp("advise")
		c.call(o, "POST", base+"/v1/advise", "application/json", jsonBody(hotAdvice(abbr)), decodeInto(res))
		if o.err != nil {
			return fmt.Errorf("warming advice for %s: %w", abbr, o.err)
		}
		s.advise = append(s.advise, res)
	}
	return nil
}

func hotAdvice(abbr string) service.AdviseRequest {
	return service.AdviseRequest{ProfileRequest: service.ProfileRequest{Workload: abbr}, Schemes: []string{"PAE", "FAE"}, Seeds: []int64{1, 2}}
}

// writeTrace builds one workload trace and writes it as CSV and VTRC.
func writeTrace(dir, abbr string, scale workload.Scale) (*ingestTrace, error) {
	sp, ok := workload.ByAbbr(abbr)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", abbr)
	}
	app := sp.Build(scale)
	t := &ingestTrace{name: abbr + "-" + scale.String(), abbr: abbr, scale: scale, containers: map[string]*profileRecord{}}
	t.csv = filepath.Join(dir, t.name+".csv")
	t.vtrc = filepath.Join(dir, t.name+".vtrc")
	var err error
	if t.csvSize, err = writeFile(t.csv, func(w io.Writer) error { return trace.WriteCSV(w, app) }); err != nil {
		return nil, err
	}
	if t.vtrcSize, err = writeFile(t.vtrc, func(w io.Writer) error { return trace.WriteBinary(w, app) }); err != nil {
		return nil, err
	}
	return t, nil
}

func writeFile(path string, write func(io.Writer) error) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := write(f); err != nil {
		f.Close()
		return 0, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// record keeps the first answer per trace and container and checks
// every later one against it.
func (s *ingest) record(t *ingestTrace, container string, o *op, res *service.ProfileResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	first, ok := t.containers[container]
	if !ok {
		t.containers[container] = &profileRecord{o: o, res: *res}
		return
	}
	if err := checkSameJSON(t.name+" "+container+" profile", res, &first.res); err != nil {
		fail(o, err)
		return
	}
	first.repeats = append(first.repeats, o)
}

func (s *ingest) upload(c *client, t *ingestTrace, container string) *op {
	path, size, ctype := t.csv, t.csvSize, "text/csv"
	if container == "binary" {
		path, size, ctype = t.vtrc, t.vtrcSize, "application/x-valley-trace"
	}
	o := c.newOp("profile." + container)
	o.replayKey = container + "/" + t.name
	f, err := os.Open(path)
	if err != nil {
		o.start, o.end, o.err = time.Now(), time.Now(), err
		return o
	}
	defer f.Close()
	var res profileResp
	c.call(o, "POST", fmt.Sprintf("%s/v1/profile?bits=%d", s.ns[0].url, containerBits[container]), ctype, f, decodeInto(&res))
	o.bytes = size
	if o.err == nil {
		s.record(t, container, o, &res.ProfileResult)
	}
	return o
}

func (s *ingest) mmap(c *client, t *ingestTrace) *op {
	o := c.newOp("profile.mmap")
	o.replayKey = "mmap/" + t.name
	req := service.ProfileRequest{TraceFile: filepath.Base(t.vtrc), Bits: containerBits["mmap"]}
	var res profileResp
	c.call(o, "POST", s.ns[0].url+"/v1/profile", "application/json", jsonBody(req), decodeInto(&res))
	o.bytes = t.vtrcSize
	if o.err == nil {
		s.record(t, "mmap", o, &res.ProfileResult)
	}
	return o
}

// op deals one request. No record of valleyd's real traffic exists to
// weight the mix, so every choice is dealt with equal weights: the five
// request kinds (CSV upload, VTRC upload, trace_file, built-in profile,
// advice), warm and fresh built-in profiles and advice, and the traces,
// workloads, schemes and windows within a kind. A warm request repeats
// one made in set-up; a fresh one carries a new BIM seed and misses.
func (s *ingest) op(b *bench, c *client) {
	trace := func(kind string) *ingestTrace { return s.traces[c.deal("trace."+kind, uniform(len(s.traces))...)] }
	switch c.deal("kind", uniform(5)...) {
	case 0:
		s.upload(c, trace("csv"), "csv")
	case 1:
		s.upload(c, trace("binary"), "binary")
	case 2:
		s.mmap(c, trace("mmap"))
	case 3:
		s.builtin(c)
	default:
		s.advice(c)
	}
}

func (s *ingest) builtin(c *client) {
	o := c.newOp("profile.builtin")
	var res profileResp
	if c.deal("builtin.warm", 1, 1) == 0 {
		i := c.deal("builtin.hot", uniform(len(s.hot))...)
		c.call(o, "POST", s.ns[0].url+"/v1/profile", "application/json", jsonBody(s.hotReq[i]), decodeInto(&res))
		if o.err == nil {
			fail(o, checkSameJSON("warm profile of "+s.hotReq[i].Workload, &res.ProfileResult, &s.hot[i].res))
			if !res.CacheHit {
				fail(o, fmt.Errorf("warm profile of %s missed the cache", s.hotReq[i].Workload))
			}
		}
		return
	}
	abbr := builtinAbbrs[c.deal("builtin.abbr", uniform(len(builtinAbbrs))...)]
	scheme := []string{"PAE", "FAE"}[c.deal("builtin.scheme", 1, 1)]
	req := service.ProfileRequest{Workload: abbr, Window: []int{8, 12, 16}[c.deal("builtin.window", 1, 1, 1)], Scheme: scheme, Seed: freshSeed(c)}
	o.replayKey = "builtin/" + abbr + "/" + scheme
	c.call(o, "POST", s.ns[0].url+"/v1/profile", "application/json", jsonBody(req), decodeInto(&res))
	if o.err != nil {
		return
	}
	if res.CacheHit {
		fail(o, fmt.Errorf("profile with fresh seed %d hit the cache", req.Seed))
	}
	if len(res.PerBit) != 30 || res.Trace.Requests == 0 {
		fail(o, fmt.Errorf("profile of %s: %d bits over %d requests", abbr, len(res.PerBit), res.Trace.Requests))
	}
	s.mu.Lock()
	if len(s.cold) < coldSample {
		s.cold = append(s.cold, coldProfile{o, req, res.ProfileResult})
	}
	s.mu.Unlock()
}

func (s *ingest) advice(c *client) {
	o := c.newOp("advise")
	i := c.deal("advise.abbr", uniform(len(adviseAbbrs))...)
	req := hotAdvice(adviseAbbrs[i])
	cold := c.deal("advise.warm", 1, 1) == 1
	if cold {
		seed := freshSeed(c)
		req.Schemes, req.Seeds = []string{"PAE"}, []int64{seed, seed + 1}
		o.replayKey = "advise/" + adviseAbbrs[i]
	}
	res := new(service.AdviseResult)
	c.call(o, "POST", s.ns[0].url+"/v1/advise", "application/json", jsonBody(req), decodeInto(res))
	if o.err != nil {
		return
	}
	warm := s.advise[i]
	switch {
	case !cold:
		fail(o, checkSameJSON("warm advice for "+req.Workload, res, warm))
	case len(res.Candidates) != 2 || res.Base == nil || res.Base.CacheKey != warm.Base.CacheKey:
		fail(o, fmt.Errorf("advice for %s: %d candidates over base %v", req.Workload, len(res.Candidates), res.Base))
	default:
		fail(o, checkSameJSON("base profile of "+req.Workload, res.Base, warm.Base))
	}
}

// verify checks every container's first answer against a library
// profile of the same trace (content hash and per-bit entropy), the
// containers against one another, and a sample of fresh built-in
// profiles against library runs.
func (s *ingest) verify(b *bench) {
	for _, t := range s.traces {
		sp, _ := workload.ByAbbr(t.abbr)
		app := sp.Build(t.scale)
		sum, err := trace.CanonicalHash(trace.AppSource(app))
		if err != nil {
			b.problem("hashing %s: %v", t.name, err)
			continue
		}
		var prev *profileRecord
		for _, container := range []string{"csv", "binary", "mmap"} {
			rec, ok := t.containers[container]
			if !ok {
				continue
			}
			o := defaultProfileOpts()
			o.bits = containerBits[container]
			want, _, err := profilePass(trace.AppSource(app).Stream(), o)
			if err != nil {
				b.problem("profiling %s: %v", t.name, err)
				continue
			}
			rec.fail(checkProfile(&rec.res, sum, want.PerBit))
			if prev != nil {
				// Bits are profiled independently, so the shared low
				// 30 bits must agree across containers.
				rec.fail(checkProfile(&service.ProfileResult{Trace: rec.res.Trace, PerBit: rec.res.PerBit[:30]}, prev.res.Trace.SHA256, prev.res.PerBit[:30]))
			}
			prev = rec
		}
	}
	for _, cp := range s.cold {
		sp, _ := workload.ByAbbr(cp.req.Workload)
		o := profileOpts{window: cp.req.Window, bits: 30, lineBytes: 128, scheme: mapping.Scheme(cp.req.Scheme), seed: cp.req.Seed}
		want, _, err := profilePass(sp.Source(workload.Small).Stream(), o)
		if err != nil {
			b.problem("profiling %s: %v", cp.req.Workload, err)
			continue
		}
		fail(cp.o, checkProfile(&cp.res, "", want.PerBit))
	}
}

// replayUpload profiles one trace file through its container's
// library decoder, as an upload body would be.
func replayUpload(rp *replayStats, t *ingestTrace, container string) error {
	path := t.csv
	if container == "binary" {
		path = t.vtrc
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var st trace.Stream = trace.NewCSVStream(f)
	if container == "binary" {
		st = trace.NewBinaryStream(f)
	}
	o := defaultProfileOpts()
	o.bits = containerBits[container]
	_, times, err := profilePass(st, o)
	if err != nil {
		return err
	}
	rp.addProfile(container, times)
	rp.estimate(container+"/"+t.name, layerTrace, times)
	return nil
}

// replay times each request kind's pipeline through the library:
// container decoders over the trace files, generator-fed profiles under
// a BIM, and advice candidates over one materialized trace.
func (s *ingest) replay(b *bench, rp *replayStats) {
	for _, t := range s.traces {
		for _, container := range []string{"csv", "binary"} {
			if err := replayUpload(rp, t, container); err != nil {
				b.problem("replaying %s %s: %v", t.name, container, err)
			}
		}
		t0 := time.Now()
		ms, err := trace.OpenMmap(t.vtrc)
		open := time.Since(t0)
		if err != nil {
			b.problem("replaying %s: %v", t.vtrc, err)
			continue
		}
		o := defaultProfileOpts()
		o.bits = containerBits["mmap"]
		_, times, err := profilePass(ms.Stream(), o)
		ms.Close()
		if err != nil {
			b.problem("replaying %s: %v", t.vtrc, err)
			continue
		}
		times.decode += open
		rp.addProfile("mmap", times)
		// Measured trace_file requests are cache hits: open and
		// validate the file, no profiling pass.
		rp.estimate("mmap/"+t.name, layerTrace, stageTimes{decode: open})
	}
	for _, abbr := range builtinAbbrs {
		sp, _ := workload.ByAbbr(abbr)
		for _, scheme := range []string{"PAE", "FAE"} {
			o := defaultProfileOpts()
			o.scheme, o.seed = mapping.Scheme(scheme), 7
			_, times, err := profilePass(sp.Source(workload.Small).Stream(), o)
			if err != nil {
				b.problem("replaying %s: %v", abbr, err)
				continue
			}
			rp.addProfile("", times)
			rp.estimate("builtin/"+abbr+"/"+scheme, layerWorkload, times)
		}
	}
	for _, abbr := range adviseAbbrs {
		sp, _ := workload.ByAbbr(abbr)
		t0 := time.Now()
		app := sp.Build(workload.Small)
		build := time.Since(t0)
		var sum stageTimes
		for seed := int64(0); seed < 2; seed++ {
			o := defaultProfileOpts()
			o.scheme, o.seed = mapping.PAE, 11+seed
			c0 := time.Now()
			_, times, err := profilePass(trace.AppSource(app).Stream(), o)
			rp.candidateMS = append(rp.candidateMS, float64(time.Since(c0))/1e6)
			if err != nil {
				b.problem("replaying advice for %s: %v", abbr, err)
				continue
			}
			sum.decode += times.decode
			sum.coalesce += times.coalesce
			sum.accumulate += times.accumulate
			sum.mapping += times.mapping
		}
		// Reading the materialized trace back is trace-layer work.
		sum.coalesce += sum.decode
		sum.decode = build
		rp.estimate("advise/"+abbr, layerWorkload, sum)
	}
}

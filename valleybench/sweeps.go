package main

import (
	"fmt"
	"io"
	"time"

	"valleymap/internal/cluster"
	"valleymap/internal/experiments"
	"valleymap/internal/mapping"
	"valleymap/internal/service"
	"valleymap/internal/workload"
)

// tableII lists the 16 Table II workload abbreviations.
func tableII() []string {
	var out []string
	for _, sp := range workload.Catalog() {
		out = append(out, sp.Abbr)
	}
	return out
}

// freshSeed returns a seed no earlier request of this run used: the
// run's seed in the high bits, then the client, then the client's op
// count (which warm-up and rounds never reset), times two so callers
// may also use freshSeed+1. The run's seed is folded into 1..2^29, so
// any -seed gives a positive result (valleyd refuses other seeds) that
// lies above every warm seed (see warmSeed).
func freshSeed(c *client) int64 {
	run := int64(uint64(c.b.opt.seed)%(1<<29)) + 1
	return run<<33 | int64(uint8(c.id))<<25 | int64(c.seq)<<1
}

// warmSeed is the seed of a workload's repeated cells: 1..1000 for any
// -seed.
func warmSeed(b *bench) int64 { return 1 + int64(uint64(b.opt.seed)%1000) }

// waitReady checks that a node answers /healthz.
func waitReady(b *bench, n *node) error {
	c := b.setupClient()
	o := c.newOp("healthz")
	c.call(o, "GET", n.url+"/healthz", "", nil, nil)
	return o.err
}

// setupSweep runs one streamed sweep outside the measured window (to
// warm caches) and returns its cells.
func setupSweep(b *bench, base string, req service.SimulateRequest) ([]*service.CellResult, error) {
	o, cells := b.setupClient().sweep(base, req)
	return cells, o.err
}

// sweepRecord keeps a sweep's cells for the checks after the window.
type sweepRecord struct {
	o     *op
	seed  int64
	cells []*service.CellResult
}

// checkRefs fails every recorded sweep whose cells differ from refs.
// Cells whose key has no reference only need to match the BASE cell's
// instruction and transaction counts for their workload.
func checkRefs(recs []sweepRecord, refs map[string]experiments.ResultJSON) {
	for _, r := range recs {
		for _, cell := range r.cells {
			if want, ok := refs[cellKey(cell.Workload, cell.Scheme, r.seed)]; ok {
				fail(r.o, checkCell(cell, want))
				continue
			}
			base, ok := refs[cellKey(cell.Workload, string(mapping.BASE), 0)]
			if !ok {
				fail(r.o, fmt.Errorf("no reference for cell %s/%s", cell.Workload, cell.Scheme))
				continue
			}
			if cell.Instructions != base.Instructions || cell.Transactions != base.Transactions {
				fail(r.o, fmt.Errorf("cell %s/%s: %d instructions, %d transactions; the unmapped run has %d, %d",
					cell.Workload, cell.Scheme, cell.Instructions, cell.Transactions, base.Instructions, base.Transactions))
			}
		}
	}
}

// ---------------------------------------------------------------------
// sweep-cold: one client, every cell a cache miss.

type sweepCold struct {
	ns     nodes
	abbrs  []string
	sweeps []sweepRecord
}

var coldSchemes = []string{"BASE", "PM", "PAE", "FAE"}

func (s *sweepCold) nodes() nodes { return s.ns }
func (s *sweepCold) close()       { s.ns.close() }

func (s *sweepCold) setup(b *bench) error {
	s.abbrs = tableII()
	n, err := startNode("single", service.Config{Workers: b.nproc}, b.tracer)
	if err != nil {
		return err
	}
	s.ns = nodes{n}
	return waitReady(b, n)
}

func (s *sweepCold) op(b *bench, c *client) {
	seed := freshSeed(c)
	o, cells := c.sweep(s.ns[0].url, service.SimulateRequest{Workloads: s.abbrs, Schemes: coldSchemes, Scale: "small", Seed: seed})
	for _, cell := range cells {
		if cell.Cached {
			fail(o, fmt.Errorf("cell %s/%s of fresh seed %d was served from cache", cell.Workload, cell.Scheme, seed))
		}
	}
	if o.err == nil {
		s.sweeps = append(s.sweeps, sweepRecord{o, seed, cells})
	}
}

// verify compares BASE and PM cells, which ignore the seed, with a
// library run; BIM cells have per-seed results, so they must match the
// unmapped run's instruction and transaction counts.
func (s *sweepCold) verify(b *bench) {
	if len(s.sweeps) == 0 {
		return
	}
	var keys []cellRefKey
	for _, a := range s.abbrs {
		keys = append(keys, cellRefKey{a, "BASE", 0}, cellRefKey{a, "PM", 0})
	}
	refs, err := b.simRefs(keys, workload.Small)
	if err != nil {
		b.problem("sweep-cold references: %v", err)
		return
	}
	checkRefs(s.sweeps, refs)
}

func (s *sweepCold) replay(b *bench, rp *replayStats) {
	rp.replayCells([]string{"MT", "LU", "SC", "SP"}, workload.Small, mapping.PAE)
}

// ---------------------------------------------------------------------
// sweep-warm-spill: a small memory tier over a spill directory, repeat
// sweeps over sub-grids of a grid computed once in set-up.

type warmSpill struct {
	ns    nodes
	abbrs []string
	seed  int64
	cold  map[string]experiments.ResultJSON
}

// warmCacheEntries is below the 64-cell warm grid, so sub-grids evict
// one another to disk and promote back.
const warmCacheEntries = 24

func (s *warmSpill) nodes() nodes { return s.ns }
func (s *warmSpill) close()       { s.ns.close() }

func (s *warmSpill) setup(b *bench) error {
	s.abbrs = tableII()
	s.seed = warmSeed(b)
	spill, err := b.runDir(fmt.Sprintf("spill-%d", time.Now().UnixNano()))
	if err != nil {
		return err
	}
	n, err := startNode("single", service.Config{Workers: b.nproc, SimCacheEntries: warmCacheEntries, SpillDir: spill}, b.tracer)
	if err != nil {
		return err
	}
	s.ns = nodes{n}
	if err := waitReady(b, n); err != nil {
		return err
	}
	cells, err := setupSweep(b, n.url, service.SimulateRequest{Workloads: s.abbrs, Schemes: coldSchemes, Scale: "tiny", Seed: s.seed})
	if err != nil {
		return fmt.Errorf("cold grid: %w", err)
	}
	s.cold = map[string]experiments.ResultJSON{}
	for _, c := range cells {
		s.cold[c.Workload+"/"+c.Scheme] = c.ResultJSON
	}
	return nil
}

// group deals one of four groups of four workloads. Repeats are skewed
// by Zipf's law with exponent 1 (weights 1, 1/2, 1/3, 1/4, so 12:6:4:3),
// the usual model of how often a cache sees repeat requests for its
// k-th most popular item (Breslau et al., "Web Caching and Zipf-like
// Distributions", INFOCOM 1999). No record of valleyd's own traffic
// exists to fit the exponent.
func (s *warmSpill) group(c *client) []string {
	g := c.deal("group", 12, 6, 4, 3)
	return s.abbrs[4*g : 4*g+4]
}

func (s *warmSpill) checkCells(o *op, cells []*service.CellResult) {
	for _, cell := range cells {
		want, ok := s.cold[cell.Workload+"/"+cell.Scheme]
		if !ok {
			fail(o, fmt.Errorf("cell %s/%s is outside the warm grid", cell.Workload, cell.Scheme))
			continue
		}
		fail(o, checkCell(cell, want))
	}
}

// op sends one repeat sweep, then one of each follow-up on the finished
// job: a poll, a resumed event stream and a span trace. With no record
// of real traffic, each of the four request kinds gets an equal share.
func (s *warmSpill) op(b *bench, c *client) {
	base := s.ns[0].url
	req := service.SimulateRequest{Workloads: s.group(c), Schemes: coldSchemes, Scale: "tiny", Seed: s.seed}
	o, cells := c.sweep(base, req)
	s.checkCells(o, cells)
	if o.err != nil || o.jobID == "" {
		return
	}
	want := len(cells)
	s.poll(c, o.jobID, req, want)
	s.resume(c, o.jobID, want)
	s.trace(c, o.jobID)
}

func (s *warmSpill) poll(c *client, jobID string, req service.SimulateRequest, want int) {
	jo := c.newOp("job")
	var job service.Job
	c.call(jo, "GET", s.ns[0].url+"/v1/jobs/"+jobID, "", nil, decodeInto(&job))
	if jo.err != nil {
		return
	}
	if job.Status != "done" || job.Done != want || job.Result == nil || len(job.Result.Cells) != want {
		fail(jo, fmt.Errorf("job %s: status %s, %d/%d cells", jobID, job.Status, job.Done, want))
		return
	}
	cs := make([]*service.CellResult, len(job.Result.Cells))
	for i := range job.Result.Cells {
		cs[i] = &job.Result.Cells[i]
	}
	fail(jo, checkGrid(cs, req.Workloads, req.Schemes))
	s.checkCells(jo, cs)
}

// resume re-reads the job's event stream from a drawn seq, up to one
// past the terminal event.
func (s *warmSpill) resume(c *client, jobID string, want int) {
	from := c.rng.Intn(want + 2)
	eo := c.newOp("events")
	var cs []*service.CellResult
	c.call(eo, "GET", fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", s.ns[0].url, jobID, from), "", nil, func(r io.Reader) error {
		_, err := readStream(r, from, want, func(ev *service.JobEvent, _ time.Time) {
			if ev.Type == service.EventCell {
				cs = append(cs, ev.Cell)
			}
		})
		return err
	})
	s.checkCells(eo, cs)
}

func (s *warmSpill) trace(c *client, jobID string) {
	to := c.newOp("trace")
	var jt service.JobTrace
	c.call(to, "GET", s.ns[0].url+"/v1/jobs/"+jobID+"/trace", "", nil, decodeInto(&jt))
	if to.err == nil && (jt.JobID != jobID || len(jt.Spans) == 0) {
		fail(to, fmt.Errorf("trace of %s names job %q with %d root spans", jobID, jt.JobID, len(jt.Spans)))
	}
}

func (s *warmSpill) verify(*bench)               {}
func (s *warmSpill) replay(*bench, *replayStats) {}

// ---------------------------------------------------------------------
// cluster-sweep: a coordinator and two workers on loopback, one client
// mixing warm repeat sweeps with fresh-seed ones, half and half: no
// record of real traffic exists to weight them otherwise.

type clusterSweep struct {
	ns     nodes
	abbrs  []string
	seed   int64
	sweeps []sweepRecord
}

var clusterSchemes = []string{"BASE", "PM"}

func (s *clusterSweep) nodes() nodes { return s.ns }
func (s *clusterSweep) close()       { s.ns.close() }

// clusterNodes starts two workers (splitting nproc pool workers) and a
// coordinator routing to them. The coordinator's own pool (the minimum,
// one worker) runs cells only when no worker can.
func clusterNodes(b *bench) (nodes, error) {
	var ns nodes
	per := max(1, b.nproc/2)
	var peers []string
	for i := 0; i < 2; i++ {
		spill, err := b.runDir(fmt.Sprintf("spill-w%d-%d", i, time.Now().UnixNano()))
		if err != nil {
			ns.close()
			return nil, err
		}
		n, err := startNode(fmt.Sprintf("w%d", i), service.Config{Workers: per, SpillDir: spill}, b.tracer)
		if err != nil {
			ns.close()
			return nil, err
		}
		ns = append(ns, n)
		peers = append(peers, n.url)
	}
	cl := cluster.New(cluster.Options{Peers: peers, HTTPClient: newHTTPClient(4), Logger: quietLogger})
	coord, err := startNode("coordinator", service.Config{Workers: 1, Cluster: cl}, b.tracer)
	if err != nil {
		ns.close()
		return nil, err
	}
	ns = append(nodes{coord}, ns...)
	for _, n := range ns {
		if err := waitReady(b, n); err != nil {
			ns.close()
			return nil, err
		}
	}
	return ns, nil
}

func (s *clusterSweep) setup(b *bench) error {
	s.abbrs = tableII()
	s.seed = warmSeed(b)
	ns, err := clusterNodes(b)
	if err != nil {
		return err
	}
	s.ns = ns
	return warmGroups(b, ns[0].url, s.abbrs, s.seed)
}

// warmGroups runs each repeat sub-grid once so its cells are warm on
// their owners.
func warmGroups(b *bench, base string, abbrs []string, seed int64) error {
	for g := 0; g < 4; g++ {
		if _, err := setupSweep(b, base, service.SimulateRequest{Workloads: abbrs[4*g : 4*g+4], Schemes: clusterSchemes, Scale: "tiny", Seed: seed}); err != nil {
			return fmt.Errorf("warming group %d: %w", g, err)
		}
	}
	return nil
}

// clusterOp sends one sweep of the cluster mix to base: dealt evenly,
// either a repeat of a warm group or a group under a fresh seed.
func clusterOp(c *client, base string, abbrs []string, seed int64) sweepRecord {
	fresh := c.deal("fresh", 1, 1) == 1
	g := c.deal("group", uniform(4)...)
	if fresh {
		g = c.deal("fresh.group", uniform(4)...)
		seed = freshSeed(c)
	}
	o, cells := c.sweep(base, service.SimulateRequest{Workloads: abbrs[4*g : 4*g+4], Schemes: clusterSchemes, Scale: "tiny", Seed: seed})
	o.fresh = fresh
	for _, cell := range cells {
		if fresh && cell.Cached {
			fail(o, fmt.Errorf("cell %s/%s of fresh seed %d was served from cache", cell.Workload, cell.Scheme, seed))
		}
	}
	return sweepRecord{o, seed, cells}
}

func (s *clusterSweep) op(b *bench, c *client) {
	rec := clusterOp(c, s.ns[0].url, s.abbrs, s.seed)
	if rec.o.err == nil {
		s.sweeps = append(s.sweeps, rec)
	}
}

// verify compares every cell, warm or fresh, with a single-process
// library run (BASE and PM ignore the seed, so one run per cell key).
func (s *clusterSweep) verify(b *bench) {
	if len(s.sweeps) == 0 {
		return
	}
	var keys []cellRefKey
	for _, a := range s.abbrs {
		for _, sc := range clusterSchemes {
			keys = append(keys, cellRefKey{a, sc, 0})
		}
	}
	refs, err := b.simRefs(keys, workload.Tiny)
	if err != nil {
		b.problem("cluster-sweep references: %v", err)
		return
	}
	checkRefs(s.sweeps, refs)
}

func (s *clusterSweep) replay(b *bench, rp *replayStats) {
	rp.replayCells([]string{"MT", "LU", "SC", "SP"}, workload.Tiny, mapping.BASE)
	rp.speedup = singleNodeSpeedup(b, s.abbrs, s.seed)
}

// singleNodeSpeedup replays the cluster mix against one node with the
// same pool size for a short window and returns its median sweep time
// over the measured cluster sweeps'.
func singleNodeSpeedup(b *bench, abbrs []string, seed int64) float64 {
	var clusterLat []float64
	for _, c := range b.clients {
		for _, o := range c.ops {
			if o.kind == "sweep" && o.err == nil {
				clusterLat = append(clusterLat, o.seconds())
			}
		}
	}
	spill, err := b.runDir("spill-single")
	if err != nil {
		b.problem("single-node comparison: %v", err)
		return 0
	}
	n, err := startNode("single", service.Config{Workers: b.nproc, SpillDir: spill}, nil)
	if err != nil {
		b.problem("single-node comparison: %v", err)
		return 0
	}
	defer n.close()
	if err := warmGroups(b, n.url, abbrs, seed); err != nil {
		b.problem("single-node comparison: %v", err)
		return 0
	}
	c := &client{id: 0, b: b, rng: newRand(b.opt.seed, 0), untraced: true}
	var lat []float64
	deadline := time.Now().Add(time.Duration(min(3, b.opt.seconds/4) * float64(time.Second)))
	for time.Now().Before(deadline) && b.ctx.Err() == nil {
		c.iter++
		rec := clusterOp(c, n.url, abbrs, seed)
		if rec.o.err != nil {
			b.problem("single-node comparison: %v", rec.o.err)
			return 0
		}
		lat = append(lat, rec.o.seconds())
	}
	if cl := medianOf(clusterLat); cl > 0 {
		return medianOf(lat) / cl
	}
	return 0
}

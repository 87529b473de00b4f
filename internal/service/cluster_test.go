package service

// Coordinator/worker integration tests: real worker daemons behind real
// HTTP listeners, a coordinator sharding sweeps across them by
// cache-affinity rendezvous hashing, and the failure modes the cluster
// must absorb — dead peers, full-cluster restarts, empty peer sets.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"valleymap/internal/cluster"
	"valleymap/internal/testutil"
)

// clusterSweep is a 4×4 grid — 16 cells, enough that rendezvous
// hashing splitting them all onto one of two peers is a ~2·2⁻¹⁶
// coincidence, so "both peers used" is a stable assertion.
var clusterSweep = SimulateRequest{
	Workloads: []string{"MT", "LU", "SC", "SP"},
	Schemes:   []string{"BASE", "RMP", "PAE", "FAE"},
	Scale:     "tiny",
}

// serveOn starts an http.Server for h on addr ("" = a fresh loopback
// port) and returns the server and its base URL. Unlike httptest, the
// listen address can be re-bound after a close, which is what the
// restart tests need: rendezvous ownership keys on the peer URL, so a
// "restarted" worker must come back at the same address.
func serveOn(t *testing.T, addr string, h http.Handler) (*http.Server, string) {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) //nolint:errcheck // closed by the test
	return srv, "http://" + ln.Addr().String()
}

// startWorker runs a worker service behind a real listener. spillDir
// may be empty (memory-only cache). The caller owns shutdown.
func startWorker(t *testing.T, addr, spillDir string) (*Service, *http.Server, string) {
	t.Helper()
	svc := New(Config{Workers: 2, SpillDir: spillDir})
	srv, url := serveOn(t, addr, svc.Handler())
	return svc, srv, url
}

func stopWorker(t *testing.T, svc *Service, srv *http.Server) {
	t.Helper()
	if err := srv.Close(); err != nil {
		t.Fatalf("closing worker server: %v", err)
	}
	svc.Close()
}

// newCoordinator builds a coordinator service over the given peer URLs
// with fast failure detection, cleaned up by the test.
func newCoordinator(t *testing.T, peers []string) *Service {
	t.Helper()
	cl := cluster.New(cluster.Options{
		Peers:        peers,
		StallTimeout: 30 * time.Second,
		DownCooldown: 200 * time.Millisecond,
	})
	svc := New(Config{Workers: 2, Cluster: cl})
	t.Cleanup(svc.Close)
	return svc
}

// peerDispatches returns the per-peer dispatched-cell counts from a
// scrape, keyed by peer URL.
func peerDispatches(series map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range series {
		if peer, ok := strings.CutPrefix(k, `valleyd_cluster_cells_dispatched_total{peer="`); ok {
			out[strings.TrimSuffix(peer, `"}`)] = v
		}
	}
	return out
}

// runClusterSweep runs req through the coordinator to a terminal state
// and returns the finished job (failing the test on a non-done end).
func runClusterSweep(t *testing.T, coord *Service, req SimulateRequest) Job {
	t.Helper()
	job, err := coord.SimulateCtx(context.Background(), req)
	if err != nil {
		t.Fatalf("SimulateCtx: %v", err)
	}
	j := waitJob(t, coord, job.ID)
	if j.Status != JobDone {
		t.Fatalf("job ended %q (error %q), want done", j.Status, j.Error)
	}
	if j.Result == nil || len(j.Result.Cells) != len(req.Workloads)*len(req.Schemes) {
		t.Fatalf("job result has %d cells, want %d", len(j.Result.Cells), len(req.Workloads)*len(req.Schemes))
	}
	for i, c := range j.Result.Cells {
		if c.Workload == "" {
			t.Fatalf("cell %d never landed: %+v", i, c)
		}
	}
	return j
}

// singleNodeTruth runs req on a plain single-node service and returns
// exec time by "workload/scheme" — the bit-exact reference the cluster
// results must match (engine determinism is the contract that makes
// this comparison legal).
func singleNodeTruth(t *testing.T, req SimulateRequest) map[string]int64 {
	t.Helper()
	svc := New(Config{Workers: 4})
	defer svc.Close()
	job, err := svc.Simulate(req)
	if err != nil {
		t.Fatalf("single-node Simulate: %v", err)
	}
	j := waitJob(t, svc, job.ID)
	if j.Status != JobDone {
		t.Fatalf("single-node job ended %q: %s", j.Status, j.Error)
	}
	truth := map[string]int64{}
	for _, c := range j.Result.Cells {
		truth[c.Workload+"/"+c.Scheme] = c.ExecTimePS
	}
	return truth
}

func checkAgainstTruth(t *testing.T, j Job, truth map[string]int64) {
	t.Helper()
	for _, c := range j.Result.Cells {
		want, ok := truth[c.Workload+"/"+c.Scheme]
		if !ok {
			t.Errorf("cell %s/%s has no single-node reference", c.Workload, c.Scheme)
			continue
		}
		if c.ExecTimePS != want {
			t.Errorf("cell %s/%s exec time %d differs from single-node truth %d", c.Workload, c.Scheme, c.ExecTimePS, want)
		}
	}
}

// TestClusterShardedSweep: a 4×4 sweep over two live workers completes,
// bit-matches single-node execution, uses both peers, and on repeat is
// served entirely from the owning workers' caches — the coordinator
// itself never caches remote results, so cached:true proves affinity
// routed each repeat cell back to the worker that computed it.
func TestClusterShardedSweep(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	w1, s1, u1 := startWorker(t, "", "")
	defer stopWorker(t, w1, s1)
	w2, s2, u2 := startWorker(t, "", "")
	defer stopWorker(t, w2, s2)
	coord := newCoordinator(t, []string{u1, u2})

	j := runClusterSweep(t, coord, clusterSweep)
	checkAgainstTruth(t, j, singleNodeTruth(t, clusterSweep))

	series := scrape(t, coord.Metrics())
	disp := peerDispatches(series)
	if len(disp) < 2 || disp[u1] == 0 || disp[u2] == 0 {
		t.Errorf("dispatches did not use both peers: %v", disp)
	}
	if n := series["valleyd_cluster_local_cells_total"]; n != 0 {
		t.Errorf("%g cells fell back to local execution with both peers healthy", n)
	}

	// Repeat: every cell must come back cached from its owning worker.
	j2 := runClusterSweep(t, coord, clusterSweep)
	for _, c := range j2.Result.Cells {
		if !c.Cached {
			t.Errorf("repeat cell %s/%s not served from its owner's cache", c.Workload, c.Scheme)
		}
	}
	checkAgainstTruth(t, j2, singleNodeTruth(t, clusterSweep))
}

// TestClusterRestartWarmAffinity is the acceptance pin for the sharding
// design: after a FULL cluster restart (coordinator and both workers,
// spill dirs retained, same addresses), a repeat sweep is served
// entirely cached:true — each cell from the worker whose spill tier
// holds it — with at least two peers in the dispatch accounting.
func TestClusterRestartWarmAffinity(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	spill1, spill2 := t.TempDir(), t.TempDir()

	w1, s1, u1 := startWorker(t, "", spill1)
	w2, s2, u2 := startWorker(t, "", spill2)
	coordA := newCoordinator(t, []string{u1, u2})
	runClusterSweep(t, coordA, clusterSweep)

	// Full restart: workers close (spilling their resident cells),
	// coordinator discarded, then everything comes back on the same
	// addresses over the same spill dirs.
	stopWorker(t, w1, s1)
	stopWorker(t, w2, s2)
	coordA.Close()
	addr1, addr2 := strings.TrimPrefix(u1, "http://"), strings.TrimPrefix(u2, "http://")
	w1, s1, u1b := startWorker(t, addr1, spill1)
	defer stopWorker(t, w1, s1)
	w2, s2, u2b := startWorker(t, addr2, spill2)
	defer stopWorker(t, w2, s2)
	if u1b != u1 || u2b != u2 {
		t.Fatalf("restarted workers moved: %s/%s -> %s/%s", u1, u2, u1b, u2b)
	}
	coordB := newCoordinator(t, []string{u1, u2})

	j := runClusterSweep(t, coordB, clusterSweep)
	for _, c := range j.Result.Cells {
		if !c.Cached {
			t.Errorf("post-restart cell %s/%s re-simulated instead of loading from its owner's spill tier", c.Workload, c.Scheme)
		}
	}
	disp := peerDispatches(scrape(t, coordB.Metrics()))
	if len(disp) < 2 || disp[u1] == 0 || disp[u2] == 0 {
		t.Errorf("post-restart dispatches did not use both peers: %v", disp)
	}
	checkAgainstTruth(t, j, singleNodeTruth(t, clusterSweep))
}

// TestClusterDeadPeerSteal: one configured worker is dead from the
// start. Its cells must be stolen onto the live worker (or the local
// fallback) without losing a single cell, and the dead peer must show
// up as down in the health table.
func TestClusterDeadPeerSteal(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	w1, s1, u1 := startWorker(t, "", "")
	defer stopWorker(t, w1, s1)
	// A listener that opens and immediately closes: a dead address no
	// other test is using.
	deadSrv, deadURL := serveOn(t, "", http.NotFoundHandler())
	deadSrv.Close() //nolint:errcheck // dying is its job

	cl := cluster.New(cluster.Options{Peers: []string{u1, deadURL}, DownCooldown: time.Minute})
	coord := New(Config{Workers: 2, Cluster: cl})
	t.Cleanup(coord.Close)

	j := runClusterSweep(t, coord, clusterSweep)
	checkAgainstTruth(t, j, singleNodeTruth(t, clusterSweep))
	if n := scrape(t, coord.Metrics())["valleyd_cluster_steals_total"]; n == 0 {
		t.Error("no steals recorded though one peer was dead")
	}
	if states := cl.PeerStates(); states[deadURL] {
		t.Errorf("dead peer still reported up: %v", states)
	}
	if states := cl.PeerStates(); !states[u1] {
		t.Errorf("live peer reported down: %v", states)
	}
}

// TestClusterAllPeersDownLocalFallback: with every peer dead the
// coordinator must still answer sweeps — first by exhausting remote
// rounds into the local fallback, then (peers in cooldown) by skipping
// cluster dispatch entirely.
func TestClusterAllPeersDownLocalFallback(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	deadSrv, deadURL := serveOn(t, "", http.NotFoundHandler())
	deadSrv.Close() //nolint:errcheck

	cl := cluster.New(cluster.Options{Peers: []string{deadURL}, DownCooldown: time.Minute})
	coord := New(Config{Workers: 2, Cluster: cl})
	t.Cleanup(coord.Close)
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)

	req := SimulateRequest{Workloads: []string{"MT", "LU"}, Schemes: []string{"BASE", "PAE"}, Scale: "tiny"}
	j := runClusterSweep(t, coord, req)
	checkAgainstTruth(t, j, singleNodeTruth(t, req))
	if n := scrape(t, coord.Metrics())["valleyd_cluster_local_cells_total"]; n != float64(len(req.Workloads)*len(req.Schemes)) {
		t.Errorf("local fallback ran %g cells, want all %d", n, len(req.Workloads)*len(req.Schemes))
	}

	// The fallback cells run through the same task wrapper as a plain
	// local sweep, so they carry the same span tree: one cell span per
	// grid slot with its queue wait and engine run, next to the failed
	// peer_batch that stranded them.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var jt struct {
		Spans []*spanNodeJSON `json:"spans"`
	}
	err = json.NewDecoder(resp.Body).Decode(&jt)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	root := findSpan(jt.Spans, "job")
	if root == nil {
		t.Fatal("no root job span in the fallback sweep's trace")
	}
	cells := map[string]bool{}
	failedBatches := 0
	for _, n := range root.Children {
		switch n.Name {
		case "cell":
			cells[n.Attrs["workload"]+"/"+n.Attrs["scheme"]] = true
			if findSpan(n.Children, "queue_wait") == nil || findSpan(n.Children, "engine_run") == nil {
				t.Errorf("fallback cell %s/%s lacks queue_wait or engine_run children", n.Attrs["workload"], n.Attrs["scheme"])
			}
		case "peer_batch":
			if n.Attrs["error"] != "" {
				failedBatches++
			}
		}
	}
	for _, w := range req.Workloads {
		for _, sc := range req.Schemes {
			if !cells[w+"/"+sc] {
				t.Errorf("no cell span with workload=%s scheme=%s", w, sc)
			}
		}
	}
	if failedBatches == 0 {
		t.Error("no peer_batch span carries the dead peer's error")
	}

	// Second sweep: the peer is now in cooldown, so dispatchCluster
	// declines up front and the plain local path serves from cache.
	j2 := runClusterSweep(t, coord, req)
	for _, c := range j2.Result.Cells {
		if !c.Cached {
			t.Errorf("repeat cell %s/%s not served from the local cache", c.Workload, c.Scheme)
		}
	}
}

// TestWorkerCellsEndpoint exercises the wire protocol directly: a
// well-formed batch streams one update per cell plus a done terminal;
// vocabulary and shape errors are plain HTTP errors before any stream
// starts.
func TestWorkerCellsEndpoint(t *testing.T) {
	svc, ts := newTestServer(t)
	_ = svc

	post := func(body any) *http.Response {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/cells", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post(cluster.Batch{
		Cells: []cluster.Cell{{Workload: "MT", Scheme: "BASE"}, {Workload: "MT", Scheme: "PAE"}},
		Scale: "tiny",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var cells int
	var sawDone bool
	dec := json.NewDecoder(resp.Body)
	for {
		var u cluster.Update
		if err := dec.Decode(&u); err != nil {
			break
		}
		switch u.Type {
		case cluster.UpdateCell:
			cells++
			var cr CellResult
			if err := json.Unmarshal(u.Payload, &cr); err != nil {
				t.Fatalf("cell payload does not decode as a CellResult: %v", err)
			}
			if cr.ExecTimePS <= 0 {
				t.Errorf("cell %s/%s has no exec time: %+v", u.Cell.Workload, u.Cell.Scheme, cr)
			}
		case cluster.UpdateDone:
			sawDone = true
		case cluster.UpdateFailed:
			t.Fatalf("batch failed: %s", u.Error)
		}
	}
	if cells != 2 || !sawDone {
		t.Fatalf("stream delivered %d cells (want 2), done=%v", cells, sawDone)
	}

	for _, tc := range []struct {
		name string
		body any
		want int
	}{
		{"unknown workload", cluster.Batch{Cells: []cluster.Cell{{Workload: "NOPE", Scheme: "BASE"}}}, http.StatusNotFound},
		{"unknown scheme", cluster.Batch{Cells: []cluster.Cell{{Workload: "MT", Scheme: "NOPE"}}}, http.StatusBadRequest},
		{"empty batch", cluster.Batch{}, http.StatusBadRequest},
	} {
		resp := post(tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestClusterEventStreamContract: remote cell results must merge into
// the job's event log under the same dense-seq contract as local ones —
// start first, one event per cell, the terminal record strictly last.
func TestClusterEventStreamContract(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	w1, s1, u1 := startWorker(t, "", "")
	defer stopWorker(t, w1, s1)
	w2, s2, u2 := startWorker(t, "", "")
	defer stopWorker(t, w2, s2)
	coord := newCoordinator(t, []string{u1, u2})

	job, err := coord.SimulateCtx(context.Background(), clusterSweep)
	if err != nil {
		t.Fatalf("SimulateCtx: %v", err)
	}
	evs := drainJobEvents(t, coord, job.ID)
	want := len(clusterSweep.Workloads)*len(clusterSweep.Schemes) + 2
	if len(evs) != want {
		t.Fatalf("transcript has %d events, want %d (start + cells + done)", len(evs), want)
	}
	if evs[0].Type != EventStart {
		t.Errorf("first event %q, want start", evs[0].Type)
	}
	seen := map[string]bool{}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d, want dense ascending", i, ev.Seq)
		}
		isLast := i == len(evs)-1
		if (ev.Type == EventDone || ev.Type == EventFailed) != isLast {
			t.Fatalf("terminal event misplaced at %d of %d", i, len(evs))
		}
		if ev.Type == EventCell {
			k := ev.Cell.Workload + "/" + ev.Cell.Scheme
			if seen[k] {
				t.Fatalf("cell %s delivered twice", k)
			}
			seen[k] = true
			if ev.Done != len(seen) {
				t.Errorf("cell event %d reports done=%d, want %d", i, ev.Done, len(seen))
			}
		}
	}
	if evs[len(evs)-1].Type != EventDone {
		t.Fatalf("terminal %q, want done", evs[len(evs)-1].Type)
	}
	if len(seen) != want-2 {
		t.Fatalf("saw %d distinct cells, want %d", len(seen), want-2)
	}
}

// TestRendezvousSpreadOverGrid guards the hash/key pairing end to end:
// the actual sim-cache keys of the 4×4 sweep must not all land on one
// of two peers (the distribution property TestRankSpreads checks in
// the cluster package, re-checked here over the real key format).
func TestRendezvousSpreadOverGrid(t *testing.T) {
	peers := []string{"http://worker1:8080", "http://worker2:8080"}
	owned := map[string]int{}
	for _, w := range clusterSweep.Workloads {
		for _, sc := range clusterSweep.Schemes {
			key := fmt.Sprintf("sim|%s|%s|%s|%s|%d", w, "tiny", sc, "baseline", int64(1))
			owned[cluster.Owner(key, peers)]++
		}
	}
	if len(owned) < 2 {
		t.Fatalf("all 16 grid cells hash to one peer: %v", owned)
	}
}

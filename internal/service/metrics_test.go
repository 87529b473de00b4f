package service

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"valleymap/internal/cluster"
)

// scrape renders m and parses every sample line into series → value,
// the way valleybench's traced mode reads /metrics.
func scrape(t testing.TB, m *Metrics) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	series := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("unparsable sample line %q", line)
		}
		series[line[:i]] = v
	}
	return series
}

// TestMetricsFamilies pins the /metrics surface: the sorted
// (family, TYPE, HELP) triples of a service with every optional gauge
// source wired (spill dir, cluster client) must match
// testdata/metrics_families.golden, and every series valleybench's
// traced mode reads must be present, so a rename cannot silently zero
// a per-layer metric.
func TestMetricsFamilies(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer := "http://" + ln.Addr().String()
	ln.Close() // the peer is dead: its cells fall back to local execution
	svc := New(Config{Workers: 1, SpillDir: t.TempDir(), Cluster: cluster.New(cluster.Options{Peers: []string{peer}})})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// The traffic of TestMetricsExpositionLint.
	for _, path := range []string{"/healthz", "/no/such/endpoint", "/also/not/real"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	postJSON(t, ts.URL+"/v1/profile", ProfileRequest{Workload: "SP", Scale: "tiny"}).Body.Close()
	job, err := svc.Simulate(SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, svc, job.ID)
	svc.Close() // spills the resident cell and drains the write-behind queue

	var buf bytes.Buffer
	if _, err := svc.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	lintExposition(t, body)

	help, typ := map[string]string{}, map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = text
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			typ[name] = kind
		}
	}
	var got []string
	for name, kind := range typ {
		got = append(got, name+" "+kind+" "+help[name])
	}
	sort.Strings(got)
	golden, err := os.ReadFile("testdata/metrics_families.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(golden)), "\n")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("metric families drifted from testdata/metrics_families.golden\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	series := scrape(t, svc.Metrics())
	for _, s := range []string{
		"valleyd_stream_events_dropped_total",
		`valleyd_cache_tier_hits_total{tier="mem"}`,
		`valleyd_cache_tier_hits_total{tier="disk"}`,
		"valleyd_sim_cells_cache_misses_total",
		"valleyd_cache_spill_writes_total",
		"valleyd_cache_spill_write_drops_total",
		"valleyd_cache_spill_errors_total",
		"valleyd_profile_cache_hits_total",
		"valleyd_profile_cache_misses_total",
		`valleyd_cluster_cells_dispatched_total{peer="` + peer + `"}`,
		"valleyd_cluster_steals_total",
		"valleyd_cluster_local_cells_total",
	} {
		if _, ok := series[s]; !ok {
			t.Errorf("series %s, read by valleybench's traced mode, is missing", s)
		}
	}
	if series["valleyd_cache_spill_writes_total"] < 1 {
		t.Error("no spill write landed — the spill families were not exercised")
	}
}

// TestMetricsHotPathAllocs pins the per-request cost of resolving a
// labeled child that already exists: the latency observation allocates
// only the status code's string, and a dispatch counter lookup
// allocates nothing.
func TestMetricsHotPathAllocs(t *testing.T) {
	m := NewMetrics()
	if n := testing.AllocsPerRun(100, func() {
		m.ObserveRequestLatency("/v1/profile", 200, time.Millisecond)
	}); n > 1 {
		t.Errorf("ObserveRequestLatency allocates %v times per request, want <= 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		m.clusterDispatched.With("w0").Inc()
	}); n != 0 {
		t.Errorf("clusterDispatched.With allocates %v times per call, want 0", n)
	}
}

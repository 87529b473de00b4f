package gpusim

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"valleymap/internal/mapping"
	"valleymap/internal/workload"
)

// gridDigest is the sha256 of every small-scale Result of the Fig. 11–17
// grid (all workloads × BASE/PM/PAE/FAE, seed 7), recorded before the
// engine gained lanes and inline heap keys. Engine changes that claim
// bit-identical simulation must leave it untouched.
const gridDigest = "f054f10a937b477bed1d1ab9291095495068d76ae74a4429ac705894ae66a290"

func TestGridDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the 16×4 small-scale grid")
	}
	cfg := Baseline()
	h := sha256.New()
	r := NewRunner()
	for _, sp := range workload.All() {
		app := sp.Build(workload.Small)
		for _, sc := range []mapping.Scheme{mapping.BASE, mapping.PM, mapping.PAE, mapping.FAE} {
			res := r.Run(app, mapping.MustNew(sc, cfg.Layout, mapping.Options{Seed: 7}), cfg)
			fmt.Fprintf(h, "%+v\n", res)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != gridDigest {
		t.Fatalf("grid digest = %s, want %s", got, gridDigest)
	}
}

// TestEngineHeapBounded pins the point of the engine lanes: every
// server-derived completion (LSU grants, NoC arrivals, LLC resolves,
// DRAM bursts) waits in its resource's lane, so the heap holds about
// one entry per resource, warp and bank. MT/small/BASE queues thousands
// of stores; scheduling them directly peaks the heap at ~18k entries.
func TestEngineHeapBounded(t *testing.T) {
	spec, _ := workload.ByAbbr("MT")
	cfg := Baseline()
	r := NewRunner()
	res := r.Run(spec.Build(workload.Small), mapping.MustNew(mapping.BASE, cfg.Layout, mapping.Options{Seed: 7}), cfg)
	st := r.EngineStats()
	t.Logf("MT/small/BASE: %d transactions, %+v", res.Transactions, st)
	if st.Events == 0 || st.HeapHighWater <= 0 {
		t.Fatalf("engine stats not recorded: %+v", st)
	}
	if st.HeapHighWater > 500 {
		t.Errorf("peak heap = %d entries, want <= 500", st.HeapHighWater)
	}
	if st.PendingHighWater < st.HeapHighWater {
		t.Errorf("pending high-water %d below heap high-water %d", st.PendingHighWater, st.HeapHighWater)
	}
}

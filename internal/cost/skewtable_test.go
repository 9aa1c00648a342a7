package cost

import (
	"math"
	"testing"

	"lancet/internal/ir"
	"lancet/internal/netsim"
	"lancet/internal/race"
)

// skewProfiles enumerates the skewed routing shapes the table must price:
// the Zipf tail and single-hot-expert generators across their interesting
// parameter ranges (the same families the session's workload knobs produce).
func skewProfiles(devices int) map[string]*netsim.RoutingProfile {
	return map[string]*netsim.RoutingProfile{
		"zipf-0.5":  netsim.ZipfProfile(devices, 0.5),
		"zipf-1.0":  netsim.ZipfProfile(devices, 1.0),
		"zipf-1.2":  netsim.ZipfProfile(devices, 1.2),
		"zipf-2.0":  netsim.ZipfProfile(devices, 2.0),
		"hot-0.3":   netsim.HotExpertProfile(devices, 0.3),
		"hot-0.6":   netsim.HotExpertProfile(devices, 0.6),
		"hot-0.9":   netsim.HotExpertProfile(devices, 0.9),
		"uniform":   netsim.UniformProfile(devices),
		"hot-0.999": netsim.HotExpertProfile(devices, 0.999),
	}
}

// The pinned equivalence bound of the interpolation table (DESIGN.md §13):
// every lookup stays within 2% of a full link-level replay of the same
// payload. The probe ladder deliberately lands between the table's octave
// points (odd offsets, primes) and beyond its last point (slope
// extrapolation).
func TestSkewTableMatchesExactReplayWithinBound(t *testing.T) {
	m := newTestModel()
	exact := netsim.New(m.Cluster)
	probes := []int64{
		1 << 10, 1537, 5000, 12345, 100_000, 777_777,
		1 << 20, 3<<20 + 55_555, 16<<20 + 1, 100 << 20,
		1 << 30, maxProfiledBytes, maxProfiledBytes * 3,
	}
	for name, prof := range skewProfiles(m.Cluster.TotalGPUs()) {
		for _, bytes := range probes {
			got := m.AllToAllSkewedUs(bytes, prof)
			want, err := exact.AllToAllUs(prof.Matrix(bytes))
			if err != nil {
				t.Fatalf("%s: exact replay: %v", name, err)
			}
			if want == 0 {
				continue
			}
			if rel := math.Abs(got-want) / want; rel > 0.02 {
				t.Errorf("%s bytes=%d: table %v us vs exact %v us (%.3f%% apart)",
					name, bytes, got, want, rel*100)
			}
		}
	}
}

// Below the table floor, matrix rounding makes interpolation meaningless;
// the price must be the exact memoized replay.
func TestSkewedBelowTableFloorIsExact(t *testing.T) {
	m := newTestModel()
	prof := netsim.ZipfProfile(m.Cluster.TotalGPUs(), 1.2)
	exact := netsim.New(m.Cluster)
	for _, bytes := range []int64{1, 100, skewTableMinBytes - 1} {
		got := m.AllToAllSkewedUs(bytes, prof)
		want, err := exact.AllToAllUs(prof.Matrix(bytes))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("bytes=%d: got %v, want exact replay %v", bytes, got, want)
		}
	}
}

// The batched pricer must return exactly what the per-call model paths
// return — it exists to skip their cache traffic, not to change prices.
func TestPricerMatchesModelPaths(t *testing.T) {
	m := newTestModel()
	prof := netsim.HotExpertProfile(m.Cluster.TotalGPUs(), 0.6)
	pr := m.NewA2APricer(prof)
	if !pr.Profiled() {
		t.Fatal("pricer with profile must report Profiled")
	}
	for _, bytes := range []int64{0, 512, 4 << 10, 1 << 20, 48 << 20} {
		if got, want := pr.SkewedUs(bytes), m.AllToAllSkewedUs(bytes, prof); got != want {
			t.Errorf("SkewedUs(%d) = %v, want %v", bytes, got, want)
		}
	}
	g := m.Cluster.TotalGPUs()
	for _, k := range []int{1, 2, 4, 8} {
		for _, bytes := range []int64{1 << 20, 48 << 20} {
			if got, want := pr.PartitionedUs(bytes, g, k), m.PredictA2APartitioned(bytes, g, k); got != want {
				t.Errorf("PartitionedUs(%d, %d, %d) = %v, want %v", bytes, g, k, got, want)
			}
			// Off-table device counts fall back to the closed form.
			if got, want := pr.PartitionedUs(bytes, 4, k), m.PredictA2APartitioned(bytes, 4, k); got != want {
				t.Errorf("PartitionedUs(%d, 4, %d) = %v, want %v", bytes, k, got, want)
			}
		}
	}
	uni := m.NewA2APricer(nil)
	if uni.Profiled() {
		t.Fatal("nil-profile pricer must not report Profiled")
	}
	if got, want := uni.SkewedUs(16<<20), m.AllToAllSkewedUs(16<<20, nil); got != want {
		t.Errorf("nil-profile SkewedUs = %v, want closed form %v", got, want)
	}
}

// The uniform replay memo must reproduce a fresh link-level drain of the
// same uniform matrix byte-identically (the session's size-exchange bound).
func TestUniformReplayMatchesFreshNetsim(t *testing.T) {
	m := newTestModel()
	g := m.Cluster.TotalGPUs()
	for _, bytes := range []int64{int64(g) * 4, 1 << 20} {
		want, err := netsim.New(m.Cluster).AllToAllUs(netsim.UniformMatrix(g, bytes))
		if err != nil {
			t.Fatal(err)
		}
		if got := m.UniformReplayUs(bytes); got != want {
			t.Errorf("UniformReplayUs(%d) = %v, want %v", bytes, got, want)
		}
		if got := m.UniformReplayUs(bytes); got != want {
			t.Errorf("memoized UniformReplayUs(%d) = %v, want %v", bytes, got, want)
		}
	}
}

// The batched lookup is the DP's per-candidate hot path: after the table is
// built it must not allocate (DESIGN.md §13's ratchet pins this at 0).
func TestBatchLookupZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	m := newTestModel()
	prof := netsim.ZipfProfile(m.Cluster.TotalGPUs(), 1.2)
	pr := m.NewA2APricer(prof)
	g := m.Cluster.TotalGPUs()
	sink := 0.0
	pr.SkewedUs(13 << 20) // warm
	if allocs := testing.AllocsPerRun(100, func() {
		sink += pr.SkewedUs(13 << 20)
		sink += pr.SkewedUs(3<<20 + 7)
		sink += pr.PartitionedUs(48<<20, g, 4)
	}); allocs != 0 {
		t.Errorf("batched lookup allocates %v per run, want 0", allocs)
	}
	_ = sink
}

// BenchmarkCostBatchLookup measures the batched pricer pricing one DP
// window's worth of all-to-all candidates (the per-candidate cost the
// partition sweep pays millions of times). Steady state must be 0 allocs/op
// — the floor in perf_floor.txt ratchets it exactly.
func BenchmarkCostBatchLookup(b *testing.B) {
	m := newTestModel()
	prof := netsim.ZipfProfile(m.Cluster.TotalGPUs(), 1.2)
	pr := m.NewA2APricer(prof)
	g := m.Cluster.TotalGPUs()
	sink := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 1; k <= 8; k++ {
			sink += pr.SkewedUs(48 << 20 / int64(k))
			sink += pr.PartitionedUs(48<<20, g, k)
		}
	}
	_ = sink
}

// Regression guard: the table path must keep PredictComm's counters and
// semantics intact for plain comm predictions (the pricer bypasses the
// comm cache without touching it).
func TestPricerDoesNotDisturbCommCache(t *testing.T) {
	m := newTestModel()
	before := m.Stats()
	pr := m.NewA2APricer(nil)
	pr.PartitionedUs(16<<20, m.Cluster.TotalGPUs(), 2)
	if after := m.Stats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("PartitionedUs touched the comm cache: %+v -> %+v", before, after)
	}
	want := m.PredictComm(ir.OpAllToAll, 8<<20, m.Cluster.TotalGPUs())
	if got := pr.PartitionedUs(16<<20, m.Cluster.TotalGPUs(), 2); got != want {
		t.Errorf("PartitionedUs = %v, want PredictComm value %v", got, want)
	}
}

package cost

import (
	"sync"
	"testing"

	"lancet/internal/hw"
	"lancet/internal/netsim"
	"lancet/internal/race"
)

// skewProfiles enumerates the skewed routing shapes AllToAllSkewedUs must
// price: the Zipf tail and single-hot-expert generators across their
// interesting parameter ranges (the same families the session's workload
// knobs produce).
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

// The skewed price is the exact link-level replay (DESIGN.md §10): over
// every profile, on flat and 2:1-oversubscribed racked fabrics of 16 and 32
// devices, each payload's price must equal a fresh netsim drain of the same
// matrix bit for bit — on the first call and on the memo hit. One model
// serves all profiles and payloads, so a memo keyed on only one of (bytes,
// fingerprint) returns another entry's price.
func checkSkewedExactReplay(t *testing.T, payloads []int64) {
	t.Helper()
	clusters := map[string]hw.Cluster{
		"16-flat":   hw.V100Cluster(2),
		"32-flat":   hw.V100Cluster(4),
		"16-racked": topoCluster(t, 2, 1, 2),
		"32-racked": topoCluster(t, 4, 2, 2),
	}
	for cname, cl := range clusters {
		m := NewModel(cl)
		for pname, prof := range skewProfiles(cl.TotalGPUs()) {
			for _, bytes := range payloads {
				want, err := netsim.New(cl).AllToAllUs(prof.Matrix(bytes))
				if err != nil {
					t.Fatalf("%s %s: exact replay: %v", cname, pname, err)
				}
				if got := m.AllToAllSkewedUs(bytes, prof); got != want {
					t.Errorf("%s %s bytes=%d: first call %v us, exact replay %v us", cname, pname, bytes, got, want)
				}
				if got := m.AllToAllSkewedUs(bytes, prof); got != want {
					t.Errorf("%s %s bytes=%d: memo hit %v us, exact replay %v us", cname, pname, bytes, got, want)
				}
			}
		}
	}
}

// Payloads from 1 KiB to beyond the 2 GiB profiling ceiling.
func TestSkewedMatchesExactReplay(t *testing.T) {
	checkSkewedExactReplay(t, []int64{
		1 << 10, 1537, 5000, 12345, 100_000, 777_777,
		1 << 20, 3<<20 + 55_555, 16<<20 + 1, 100 << 20, 1 << 30,
		maxProfiledBytes, maxProfiledBytes + 1, maxProfiledBytes * 3,
	})
}

// Payloads below 1 KiB, where matrix rounding makes the replay a staircase
// in the payload.
func TestSkewedSubKiBMatchesExactReplay(t *testing.T) {
	checkSkewedExactReplay(t, []int64{1, 2, 3, 7, 100, 1023})
}

// A warm memo hit is what the partition DP and the simulator's overrides
// pay per repeated (payload, profile) query; it must not allocate.
func TestSkewedMemoHitZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	m := newTestModel()
	prof := netsim.ZipfProfile(m.Cluster.TotalGPUs(), 1.2)
	sink := m.AllToAllSkewedUs(13<<20, prof) // warm
	if allocs := testing.AllocsPerRun(100, func() {
		sink += m.AllToAllSkewedUs(13<<20, prof)
	}); allocs != 0 {
		t.Errorf("memo hit allocates %v per run, want 0", allocs)
	}
	_ = sink
}

// Concurrent plans of one session share the cost model: goroutines that
// race on the first query of one (payload, profile) pair must all get the
// exact replay, and the memo must hold it afterwards.
func TestSkewedConcurrentFirstUse(t *testing.T) {
	m := newTestModel()
	prof := netsim.HotExpertProfile(m.Cluster.TotalGPUs(), 0.6)
	const bytes = 5<<20 + 3
	want, err := netsim.New(m.Cluster).AllToAllUs(prof.Matrix(bytes))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			<-start
			if got := m.AllToAllSkewedUs(bytes, prof); got != want {
				t.Errorf("concurrent first use: %v us, exact replay %v us", got, want)
			}
		}()
	}
	close(start)
	wg.Wait()
	before := m.Stats()
	if got := m.AllToAllSkewedUs(bytes, prof); got != want {
		t.Errorf("after the race: %v us, exact replay %v us", got, want)
	}
	if after := m.Stats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("query after the race should be a memo hit: %+v -> %+v", before, after)
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

package lancet

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"lancet/internal/tensor"
)

// proxyOracle builds the k-way proxy profile the slow way, from a fresh
// k-way RouteOnly gate run over the shape's materialized proxy batch.
func proxyOracle(t *testing.T, shape proxyShape, k int) *routingProfile {
	t.Helper()
	layer, err := shape.layer()
	if err != nil {
		t.Fatal(err)
	}
	var inputs []*tensor.Tensor
	switch {
	case shape.skew > 0:
		inputs = proxyNoise.SkewedInputs(layer, proxyTokens, shape.skew)
	case shape.hot > 0:
		inputs = proxyNoise.HotExpertInputs(layer, proxyTokens, shape.hot)
	default:
		inputs = makeProxyInputs(shape.devices, proxyTokens, proxyHidden)
	}
	_, stats := layer.RouteOnly(inputs, gateFor(shape.gate), k)
	p, err := newRoutingProfile(stats, shape, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestProfileMatchesRouteOnlyOracle pins route-once profiling at the
// session level: every k-way profile a session derives from its single gate
// run equals the profile of a fresh k-way gate run, for arrival-order (Switch,
// Top-2) and admission-order (BPR, expert choice) gates under Zipf and
// hot-expert routing. The skew values are unique to this test, so the
// process-wide memo cannot answer from another test's entries.
func TestProfileMatchesRouteOnlyOracle(t *testing.T) {
	top2 := GPT2SMoE(0)
	top2.Gate = GateTop2
	ec := ViTSMoE(0)
	ec.Gate = GateExpertChoice
	configs := []struct {
		name string
		cfg  ModelConfig
	}{{"gpt2-s", GPT2SMoE(0)}, {"vit-s", ViTSMoE(0)}, {"top2", top2}, {"expert-choice", ec}}
	for _, c := range configs {
		for _, routing := range []string{"zipf", "hot"} {
			t.Run(fmt.Sprintf("%s/%s", c.name, routing), func(t *testing.T) {
				s, err := NewSession(c.cfg, MustCluster("V100", 16))
				if err != nil {
					t.Fatal(err)
				}
				if routing == "zipf" {
					s.WorkloadSkew = 1.0371
				} else {
					s.WorkloadHotExpert = 0.4137
				}
				shape := s.proxyShape()
				for k := 1; k <= 8; k++ {
					got, err := s.profile(k)
					if err != nil {
						t.Fatal(err)
					}
					if want := proxyOracle(t, shape, k); !reflect.DeepEqual(got, want) {
						t.Fatalf("k=%d: session profile %+v, oracle %+v", k, got, want)
					}
				}
			})
		}
	}
}

// TestProfileFollowsSkewKnobs pins that the session's kept gate run is keyed
// by the proxy shape: changing a skew knob after profiling re-runs the gate
// for the new shape rather than splitting the old run.
func TestProfileFollowsSkewKnobs(t *testing.T) {
	s := newTestSession(t)
	s.WorkloadSkew = 0.8123
	if _, err := s.profile(1); err != nil {
		t.Fatal(err)
	}
	s.WorkloadSkew = 1.3917
	got, err := s.profile(2)
	if err != nil {
		t.Fatal(err)
	}
	if want := proxyOracle(t, s.proxyShape(), 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("profile after a skew change: %+v, oracle %+v", got, want)
	}
}

// TestProxyMemoBounded pins the process-wide memo's fixed footprint:
// storing more distinct shapes than its capacity keeps the size at the
// capacity, and an evicted shape recomputes to an identical profile.
func TestProxyMemoBounded(t *testing.T) {
	newSession := func(skew float64) *Session {
		s := newTestSession(t)
		s.WorkloadSkew = skew
		return s
	}
	first, err := newSession(0.6001).profile(3)
	if err != nil {
		t.Fatal(err)
	}
	// Shapes no session produces (negative device counts) fill the memo
	// without paying for gate runs.
	for i := 0; i < proxyMemoCapacity+10; i++ {
		proxyMemo.put(proxyKey{shape: proxyShape{devices: -1 - i}, k: 1}, &routingProfile{})
	}
	if n := proxyMemo.len(); n != proxyMemoCapacity {
		t.Fatalf("memo holds %d entries, want its capacity %d", n, proxyMemoCapacity)
	}
	evicted := newSession(0.6001)
	if _, ok := proxyMemo.get(proxyKey{shape: evicted.proxyShape(), k: 3}); ok {
		t.Fatal("the oldest shape survived more than capacity newer ones")
	}
	again, err := evicted.profile(3)
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Error("an evicted shape was served from the memo")
	}
	if !reflect.DeepEqual(again, first) {
		t.Errorf("recomputed profile %+v differs from the evicted one %+v", again, first)
	}
}

// TestProfileConcurrent reaches the process-wide memo and one session's kept
// gate run from several goroutines at once — sessions that share memo keys,
// and goroutines that share a session — and checks every profile against
// the oracle. Run with -race.
func TestProfileConcurrent(t *testing.T) {
	skews := []float64{0.9137, 1.2219}
	shared := newTestSession(t)
	shared.WorkloadSkew = skews[0]
	want := make(map[proxyKey]*routingProfile)
	for _, skew := range skews {
		s := newTestSession(t)
		s.WorkloadSkew = skew
		for k := 1; k <= 4; k++ {
			want[proxyKey{shape: s.proxyShape(), k: k}] = proxyOracle(t, s.proxyShape(), k)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		s := shared
		if g%2 == 1 {
			s = newTestSession(t)
			s.WorkloadSkew = skews[g%4/2]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 4; k >= 1; k-- {
				got, err := s.profile(k)
				if err != nil {
					t.Error(err)
					return
				}
				if w := want[proxyKey{shape: s.proxyShape(), k: k}]; !reflect.DeepEqual(got, w) {
					t.Errorf("skew %v k=%d: concurrent profile differs from the oracle", s.WorkloadSkew, k)
				}
			}
		}()
	}
	wg.Wait()
}

// routeProxySeq numbers BenchmarkRouteProxy's iterations across runs, so
// every iteration routes a shape never seen.
var routeProxySeq int

// BenchmarkRouteProxy measures one cold proxy gate run at 32 GPUs, the
// work a never-seen skewed shape costs the routing profile: routing the
// shared noise tape under the per-request bias. It covers every quadrant of
// the Switch gate and Batch Prioritized Routing under Zipf and hot-expert
// routing, and perf_floor.txt ratchets all four.
func BenchmarkRouteProxy(b *testing.B) {
	bpr := GPT2SMoE(0)
	bpr.Gate = GateBatchPriority
	for _, c := range []struct {
		name string
		cfg  ModelConfig
		zipf bool
	}{
		{"switch_zipf", GPT2SMoE(0), true}, {"switch_hot", GPT2SMoE(0), false},
		{"bpr_zipf", bpr, true}, {"bpr_hot", bpr, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, err := NewSession(c.cfg, MustCluster("V100", 32))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				routeProxySeq++
				// An irrational rotation never repeats a parameter.
				u := math.Mod(float64(routeProxySeq)*0.6180339887498949, 1)
				if c.zipf {
					s.WorkloadSkew = 0.5 + u
				} else {
					s.WorkloadHotExpert = 0.15 + 0.45*u
				}
				if _, err := s.proxyShape().route(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

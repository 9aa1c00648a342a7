package moe

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"lancet/internal/tensor"
)

// TestSplitMatchesRouteOnly is the differential check behind route-once
// profiling: for every gate, over a generated space of layer shapes,
// capacities, input distributions (near ties of the gate logits included)
// and split counts (k beyond the token count included), one Route followed
// by Split(k) reports exactly the statistics a fresh RouteOnly(xs, gate, k)
// does.
func TestSplitMatchesRouteOnly(t *testing.T) {
	gates := []Gate{SwitchGate{}, Top2Gate{}, RandomGate{Seed: 11}, HashGate{}, BatchPrioritizedGate{}, ExpertChoiceGate{}}
	rng := rand.New(rand.NewSource(20240517))
	trials := 50
	if testing.Short() {
		trials = 15
	}
	for _, gate := range gates {
		var dropped, clean int
		for trial := 0; trial < trials; trial++ {
			cfg := Config{
				Devices:          1 + rng.Intn(32),
				ExpertsPerDevice: 1 + rng.Intn(4),
				Hidden:           4 + rng.Intn(6),
				FFN:              4,
			}
			if cfg.TotalExperts() < gate.TopK() {
				cfg.ExpertsPerDevice = gate.TopK() // top-2 needs two experts
			}
			tokens := 1 + rng.Intn(40)
			// From one slot per expert (heavy dropping) to more than a
			// device can ever send (none).
			cfg.Capacity = 1 + rng.Intn(tokens*gate.TopK()+1)
			l, err := NewGateLayer(cfg, rng.Int63())
			if err != nil {
				t.Fatal(err)
			}
			var xs []*tensor.Tensor
			input := "balanced"
			switch rng.Intn(4) {
			case 0:
				xs = make([]*tensor.Tensor, cfg.Devices)
				for d := range xs {
					xs[d] = tensor.Randn(rng, 1, tokens, cfg.Hidden)
				}
			case 1:
				// Tokens scaled by 1e-3 down to 1e-9 put the gate logits
				// within the top-1 shortcut's 1e-6 margin of each other
				// or below float32 softmax resolution (rounding ties),
				// next to rows the shortcut decides.
				input = "near-tie"
				xs = make([]*tensor.Tensor, cfg.Devices)
				for d := range xs {
					xs[d] = tensor.Randn(rng, 1, tokens, cfg.Hidden)
					for i := 0; i < tokens; i++ {
						tensor.Scale(xs[d].Row(i), float32(math.Pow(10, -3-6*rng.Float64())))
					}
				}
			case 2:
				input = "zipf"
				xs = SkewedInputs(l, tokens, 0.5+rng.Float64(), rng.Int63())
			default:
				input = "hot"
				xs = HotExpertInputs(l, tokens, 0.15+0.5*rng.Float64(), rng.Int63())
			}
			r := l.Route(xs, gate)
			for k := 1; k <= 8; k++ {
				_, want := l.RouteOnly(xs, gate, k)
				if got := r.Split(k); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %+v tokens=%d %s k=%d: Split\n%+v\nRouteOnly\n%+v",
						gate.Name(), cfg, tokens, input, k, got, want)
				}
				if k == 1 {
					if want.Dropped > 0 {
						dropped++
					} else {
						clean++
					}
				}
			}
		}
		// Expert choice never drops; every other gate must have been
		// exercised both with and without capacity overflow.
		if _, ec := gate.(ExpertChoiceGate); !ec && (dropped == 0 || clean == 0) {
			t.Errorf("%s: generated space hit %d dropping and %d drop-free batches; want both", gate.Name(), dropped, clean)
		}
	}
}

// TestSplitIsRepeatable pins Routing's immutability: splitting twice, in any
// order, returns equal statistics that share no memory.
func TestSplitIsRepeatable(t *testing.T) {
	l, xs := testLayer(t, 3)
	for _, gate := range []Gate{SwitchGate{}, BatchPrioritizedGate{}, ExpertChoiceGate{}} {
		r := l.Route(xs, gate)
		a := r.Split(3)
		r.Split(5)
		b := r.Split(3)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: repeated Split(3) differs", gate.Name())
		}
		b.SendTokens[0][0] = -1
		if c := r.Split(3); c.SendTokens[0][0] == -1 {
			t.Errorf("%s: Split results alias the routing's totals", gate.Name())
		}
	}
}

// TestNewGateLayerMatchesNewLayer pins that skipping the expert weights
// leaves the gate projection unchanged.
func TestNewGateLayerMatchesNewLayer(t *testing.T) {
	cfg := Config{Devices: 3, ExpertsPerDevice: 2, Capacity: 4, Hidden: 8, FFN: 16}
	full, err := NewLayer(cfg, 12345)
	if err != nil {
		t.Fatal(err)
	}
	gateOnly, err := NewGateLayer(cfg, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if !gateOnly.GateW.Equal(full.GateW) {
		t.Error("NewGateLayer's GateW differs from NewLayer's")
	}
	if gateOnly.W1 != nil || gateOnly.W2 != nil {
		t.Error("NewGateLayer must not draw expert weights")
	}
	if _, err := NewGateLayer(Config{}, 1); err == nil {
		t.Error("NewGateLayer must reject invalid config")
	}
}

// wholeBatchGate is a gate Route has no split replay for: it ranks tokens
// against the batch like BPR but is neither BPR nor expert choice.
type wholeBatchGate struct{ SwitchGate }

func (wholeBatchGate) PartialBatchSafe() bool { return false }

func TestRoutePanicsOnUnknownWholeBatchGate(t *testing.T) {
	l, xs := testLayer(t, 3)
	defer func() {
		if recover() == nil {
			t.Error("Route must refuse a whole-batch gate it cannot replay")
		}
	}()
	l.Route(xs, wholeBatchGate{})
}

// TestBPRCountsMatchArrivalOrder pins the fact BPR's split replay rests on:
// Batch Prioritized Routing drops other tokens than arrival order when a
// batch is split, but never other counts, because a top-1 gate admits
// min(remaining_e, n_e) of a chunk's n_e tokens for expert e in any order.
// Over generated configs (1–8 devices, 1–3 experts each, 1–60 tokens,
// capacities from one slot to none dropped, a third of the batches skewed),
// RouteOnly under BPR reports the statistics RouteOnly under Switch does.
func TestBPRCountsMatchArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	for trial := 0; trial < 300; trial++ {
		cfg := Config{Devices: 1 + rng.Intn(8), ExpertsPerDevice: 1 + rng.Intn(3), Hidden: 8, FFN: 4}
		tokens := 1 + rng.Intn(60)
		cfg.Capacity = 1 + rng.Intn(tokens+1)
		l, err := NewGateLayer(cfg, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		var xs []*tensor.Tensor
		switch rng.Intn(3) {
		case 0:
			xs = SkewedInputs(l, tokens, 0.5+rng.Float64(), rng.Int63())
		default:
			xs = make([]*tensor.Tensor, cfg.Devices)
			for d := range xs {
				xs[d] = tensor.Randn(rng, 1, tokens, cfg.Hidden)
			}
		}
		for k := 1; k <= 10; k++ {
			_, bpr := l.RouteOnly(xs, BatchPrioritizedGate{}, k)
			if _, sw := l.RouteOnly(xs, SwitchGate{}, k); !reflect.DeepEqual(bpr, sw) {
				t.Fatalf("%+v tokens=%d k=%d: BPR\n%+v\nSwitch\n%+v", cfg, tokens, k, bpr, sw)
			}
		}
	}
}

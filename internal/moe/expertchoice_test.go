package moe

import (
	"testing"
)

func TestExpertChoiceFillsCapacityExactly(t *testing.T) {
	l, xs := testLayer(t, 4)
	gate := ExpertChoiceGate{}
	routes, stats := l.RouteOnly(xs, gate, 1)
	// Each device sends exactly min(C, T) tokens to every expert: capacity
	// is always filled when tokens are plentiful.
	e := l.Cfg.TotalExperts()
	wantPerDevice := e * l.Cfg.Capacity
	for d := range routes {
		slots := 0
		for _, r := range routes[d] {
			slots += len(r.Slots)
		}
		if slots != wantPerDevice {
			t.Errorf("device %d selected %d slots, want %d (E*C)", d, slots, wantPerDevice)
		}
	}
	if stats.Dropped != 0 {
		t.Errorf("expert choice has no capacity race, yet %d drops", stats.Dropped)
	}
	// The padded buffer is exactly full: irregular a2a saves nothing.
	perToken := int64(2 * l.Cfg.Hidden)
	for d, b := range stats.ActualA2ABytes(perToken) {
		if want := int64(stats.PaddedTokensPerDevice) * perToken; b != want {
			t.Errorf("device %d: payload %d, want exactly padded %d", d, b, want)
		}
	}
}

func TestExpertChoiceTokensMaySkipOrRepeat(t *testing.T) {
	l, xs := testLayer(t, 2) // tight capacity: 2*E slots for 24 tokens
	routes, _ := l.RouteOnly(xs, ExpertChoiceGate{}, 1)
	skipped, multi := 0, 0
	for d := range routes {
		for _, r := range routes[d] {
			switch {
			case len(r.Slots) == 0:
				skipped++
			case len(r.Slots) > 1:
				multi++
			}
		}
	}
	if skipped == 0 {
		t.Error("with tight capacity some tokens must be unselected")
	}
	if multi == 0 {
		t.Error("some tokens should be picked by several experts")
	}
}

func TestExpertChoiceNotPartialBatchSafe(t *testing.T) {
	gate := ExpertChoiceGate{}
	if gate.PartialBatchSafe() {
		t.Fatal("expert choice ranks the whole batch; must not be partial-batch safe")
	}
	l, xs := testLayer(t, 3)
	wholeRoutes, _ := l.RouteOnly(xs, gate, 1)
	partRoutes, _ := l.RouteOnly(xs, gate, 4)
	identical := true
	for d := range wholeRoutes {
		for i := range wholeRoutes[d] {
			if len(wholeRoutes[d][i].Slots) != len(partRoutes[d][i].Slots) {
				identical = false
			}
		}
	}
	if identical {
		t.Error("expert-choice selection survived batch splitting — the batch-ranking property is broken")
	}
}

func TestSkewedInputsShiftLoad(t *testing.T) {
	cfg := Config{Devices: 4, ExpertsPerDevice: 2, Capacity: 6, Hidden: 16, FFN: 32}
	l, err := NewLayer(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	balanced := SkewedInputs(l, 48, 0, 7)
	skewed := SkewedInputs(l, 48, 1.5, 7)
	_, sBal := l.RouteOnly(balanced, SwitchGate{}, 1)
	_, sSkew := l.RouteOnly(skewed, SwitchGate{}, 1)
	if sSkew.Dropped <= sBal.Dropped {
		t.Errorf("skewed routing should drop more: %d vs %d", sSkew.Dropped, sBal.Dropped)
	}
	// Load concentrates: the hottest destination device receives a larger
	// share under skew.
	hotShare := func(s *Stats) float64 {
		recv := make([]int, cfg.Devices)
		total := 0
		for src := range s.SendTokens {
			for dst, c := range s.SendTokens[src] {
				recv[dst] += c
				total += c
			}
		}
		max := 0
		for _, c := range recv {
			if c > max {
				max = c
			}
		}
		return float64(max) / float64(total)
	}
	if hotShare(sSkew) <= hotShare(sBal) {
		t.Errorf("skew did not concentrate load: %.3f vs %.3f", hotShare(sSkew), hotShare(sBal))
	}
}

func TestSkewedInputsDeterministic(t *testing.T) {
	cfg := Config{Devices: 2, ExpertsPerDevice: 2, Capacity: 4, Hidden: 8, FFN: 8}
	l, err := NewLayer(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := SkewedInputs(l, 16, 1.0, 5)
	b := SkewedInputs(l, 16, 1.0, 5)
	for d := range a {
		if !a[d].Equal(b[d]) {
			t.Fatal("same seed must give identical skewed inputs")
		}
	}
}

func TestZipfPickDistribution(t *testing.T) {
	r := &splitmixRand{state: 3}
	weights, sum := zipfWeights(8, 1.2)
	counts := make([]int, 8)
	for i := 0; i < 4000; i++ {
		counts[pickWeighted(r.float(), weights, sum)]++
	}
	if counts[0] <= counts[7] {
		t.Errorf("Zipf head (%d) should dominate tail (%d)", counts[0], counts[7])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 4000 {
		t.Errorf("samples lost: %d", total)
	}
}

func TestExpertChoiceEndToEndForward(t *testing.T) {
	// The full data plane must run with expert choice (multi-selection
	// combines weighted expert outputs).
	l, xs := testLayer(t, 4)
	ys, stats := l.Forward(xs, ExpertChoiceGate{})
	if stats.Routed == 0 {
		t.Fatal("nothing routed")
	}
	nonzero := 0
	for d := range ys {
		for _, v := range ys[d].Data {
			if v != 0 {
				nonzero++
				break
			}
		}
	}
	if nonzero == 0 {
		t.Error("no device produced output")
	}
}

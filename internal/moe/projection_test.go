package moe

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"lancet/internal/tensor"
)

// tapeInputs materializes the batch the tape routes under a Zipf (zipf) or
// hot-expert parameter, through the public generators.
func tapeInputs(tp *Tape, l *Layer, tokens int, zipf bool, param float64) []*tensor.Tensor {
	if zipf {
		return tp.SkewedInputs(l, tokens, param)
	}
	return tp.HotExpertInputs(l, tokens, param)
}

// checkTapeSplits pins the tape's routing entry point to the oracle: for
// k = 1…kmax, Split(k) of RouteSkewed/RouteHotExpert equals the statistics
// of RouteOnly over the materialized batch.
func checkTapeSplits(t *testing.T, tp *Tape, l *Layer, tokens int, zipf bool, param float64, gate Gate, kmax int) {
	t.Helper()
	var r *Routing
	if zipf {
		r = tp.RouteSkewed(l, tokens, param, gate)
	} else {
		r = tp.RouteHotExpert(l, tokens, param, gate)
	}
	xs := tapeInputs(tp, l, tokens, zipf, param)
	for k := 1; k <= kmax; k++ {
		_, want := l.RouteOnly(xs, gate, k)
		if got := r.Split(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %+v tokens=%d zipf=%v param=%v k=%d: tape Split\n%+v\nRouteOnly\n%+v",
				gate.Name(), l.Cfg, tokens, zipf, param, k, got, want)
		}
	}
}

// checkTapeDecisions decides every token of the tape's projected batch under
// b through the top-1 path and checks each decision against SoftmaxArgmax of
// the materialized token's logits. It returns how the tokens were decided.
func checkTapeDecisions(t *testing.T, tp *Tape, l *Layer, tokens int, b tokenBias) routeCounts {
	t.Helper()
	tb := tp.batch(l, tokens, b, true)
	exact := inputBatch{xs: tp.biased(l, tokens, b), w: l.GateW}
	row := make([]float32, l.Cfg.TotalExperts())
	for d := 0; d < l.Cfg.Devices; d++ {
		for i := 0; i < tokens; i++ {
			got, want := tb.top1(row, d, i), exact.top1(row, d, i)
			if got != want {
				t.Fatalf("%+v tokens=%d: device %d token %d decided %d, exact %d", l.Cfg, tokens, d, i, got, want)
			}
		}
	}
	return tb.counts
}

// TestTapeRouteMatchesRouteOnly is the generated-space oracle of the tape's
// routing entry point: all six gates, 1–40 devices with 1–4 experts each,
// tapes that keep only part of the requested stream (tokens past the kept
// prefix take the exact path), hidden widths of 16 and 1–9, and Zipf
// exponents and hot shares over their whole ranges, zero included. It also
// checks each top-1 token's decision, and that the certified, unbiased and
// exact paths all ran.
func TestTapeRouteMatchesRouteOnly(t *testing.T) {
	gates := []Gate{SwitchGate{}, BatchPrioritizedGate{}, Top2Gate{}, RandomGate{Seed: 5}, HashGate{}, ExpertChoiceGate{}}
	rng := rand.New(rand.NewSource(424201))
	trials := 120
	if testing.Short() {
		trials = 40
	}
	var total routeCounts
	for trial := 0; trial < trials; trial++ {
		gate := gates[trial%len(gates)]
		cfg := Config{Devices: 1 + rng.Intn(40), ExpertsPerDevice: 1 + rng.Intn(4), Hidden: 16, FFN: 4}
		if rng.Intn(3) == 0 {
			cfg.Hidden = 1 + rng.Intn(9)
		}
		if cfg.TotalExperts() < gate.TopK() {
			cfg.ExpertsPerDevice = gate.TopK()
		}
		tokens := 1 + rng.Intn(40)
		cfg.Capacity = 1 + rng.Intn(tokens*gate.TopK()+1)
		l, err := NewGateLayer(cfg, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		tp := NewTape(rng.Int63(), cfg.Hidden, tokens*(1+rng.Intn(cfg.Devices+4)))
		zipf := rng.Intn(2) == 0
		var param float64
		switch rng.Intn(8) {
		case 0: // the balanced batch
		case 1: // more than every token biased
			param = 1 + rng.Float64()
		default:
			param = rng.Float64()
			if zipf {
				param *= 3
			}
		}
		checkTapeSplits(t, tp, l, tokens, zipf, param, gate, 8)
		if _, top1 := gate.(SwitchGate); top1 && param > 0 {
			b := hotBias(param)
			if zipf {
				b = zipfBias(cfg.TotalExperts(), param)
			}
			c := checkTapeDecisions(t, tp, l, tokens, b)
			total.certified += c.certified
			total.unbiased += c.unbiased
			total.exact += c.exact
		}
	}
	if total.certified == 0 || total.unbiased == 0 || total.exact == 0 {
		t.Errorf("generated space decided %+v tokens; want every path exercised", total)
	}
}

// TestProjectionBoundHolds checks the certificate's error bound on 10^5
// generated biased tokens: for every expert e, the float32 logit L_e of the
// built input is within K·‖W_e‖ plus the float64 slack of A_e = P_e +
// c·G[t][e]. Gate weights span four decades, noise three, and the bias
// coefficient up to 5·10^5 (a Zipf exponent of 10^4).
func TestProjectionBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(1849))
	rows, worst := 0, 0.0
	for rows < 100000 {
		h, e := 1+rng.Intn(32), 2+rng.Intn(47)
		w := tensor.Randn(rng, math.Pow(10, -3+4*rng.Float64()), h, e)
		pr := newProjection(w)
		l := &Layer{Cfg: Config{Devices: 1, ExpertsPerDevice: e, Hidden: h}, GateW: w}
		b := hotBias(1)
		if rng.Intn(2) == 0 {
			b = tokenBias{scale: float32(math.Pow(10, -2+6*rng.Float64())), mult: 50}
		}
		c := b.c()
		n, x := make([]float32, h), make([]float32, h)
		p, logits := make([]float32, e), make([]float32, e)
		for r := 0; r < 100; r++ {
			scale := math.Pow(10, -1+3*rng.Float64())
			for j := range n {
				n[j] = float32(rng.NormFloat64() * scale)
			}
			target := rng.Intn(e)
			copy(x, n)
			b.push(l, x, target)
			tensor.MatMulRow(p, n, w)
			tensor.MatMulRow(logits, x, w)
			k, aMax, ok := pr.bound(n, target, b)
			if !ok {
				t.Fatalf("bound refused a finite token (c=%v)", c)
			}
			eps := float64(h+4) * 0x1p-52
			for j := range logits {
				a := float64(p[j]) + c*pr.gram[target*e+j]
				if math.Abs(a) > aMax {
					t.Fatalf("|A_%d| = %v exceeds its bound %v", j, math.Abs(a), aMax)
				}
				err := math.Abs(float64(logits[j]) - a)
				allowed := k*pr.norms[j] + eps*(math.Abs(a)+math.Abs(c)*pr.norms[target]*pr.norms[j]) + float64(4*h)*0x1p-150
				if err > allowed {
					t.Fatalf("H=%d E=%d c=%v expert %d: |L-A| = %v exceeds the bound %v", h, e, c, j, err, allowed)
				}
				if allowed > 0 {
					worst = math.Max(worst, err/allowed)
				}
			}
			rows++
		}
	}
	t.Logf("%d tokens: the largest error used %.3f of its bound", rows, worst)
}

// plantedLayer is a gate layer whose expert 1 column is expert 0's, with
// one element moved ulps steps up (0: identical columns).
func plantedLayer(t *testing.T, ulps int) *Layer {
	t.Helper()
	l, err := NewGateLayer(Config{Devices: 4, ExpertsPerDevice: 2, Capacity: 64, Hidden: 16, FFN: 4}, 77)
	if err != nil {
		t.Fatal(err)
	}
	e := l.Cfg.TotalExperts()
	for j := 0; j < l.Cfg.Hidden; j++ {
		l.GateW.Data[j*e+1] = l.GateW.Data[j*e]
	}
	for i := 0; i < ulps; i++ {
		l.GateW.Data[3*e+1] = math.Nextafter32(l.GateW.Data[3*e+1], float32(math.Inf(1)))
	}
	return l
}

// TestCertifyPlantedTies pushes every token hard toward expert 0 of a layer
// whose expert 1 has the same gate column, or one a single ulp away: no
// token may be certified, and the exact path must decide each one
// (identical columns tie exactly, and the lower index wins).
func TestCertifyPlantedTies(t *testing.T) {
	hard := tokenBias{pick: func(float64) (int, bool) { return 0, true }, scale: 10, mult: 100}
	for _, ulps := range []int{0, 1} {
		tp := NewTape(5, 16, 4*64)
		l := plantedLayer(t, ulps)
		c := checkTapeDecisions(t, tp, l, 64, hard)
		if c.certified != 0 || c.exact != 4*64 {
			t.Errorf("columns %d ulp apart: %+v; want every token on the exact path", ulps, c)
		}
		if ulps == 0 {
			r := tp.RouteHotExpert(l, 64, 1, SwitchGate{})
			if got := r.Split(1).ExpertTokens[1]; got != 0 {
				t.Errorf("identical columns: expert 1 won %d tokens; ties go to the lower index", got)
			}
		}
		checkTapeSplits(t, tp, l, 64, false, 1, BatchPrioritizedGate{}, 4)
	}
}

// TestProjectionKeyedByWeights routes two layers of equal expert count but
// different seeds through one tape: each must get its own projection and
// match its own oracle.
func TestProjectionKeyedByWeights(t *testing.T) {
	tp := NewTape(9, 16, 16*32)
	for _, seed := range []int64{1, 2} {
		l, err := NewGateLayer(Config{Devices: 16, ExpertsPerDevice: 2, Capacity: 8, Hidden: 16, FFN: 4}, seed)
		if err != nil {
			t.Fatal(err)
		}
		checkTapeSplits(t, tp, l, 32, true, 0.8, SwitchGate{}, 4)
		checkTapeDecisions(t, tp, l, 32, zipfBias(32, 0.8))
	}
	if n := len(tp.projs); n != 2 {
		t.Errorf("tape holds %d projections, want one per gate layer (2)", n)
	}
}

// TestProjectionConcurrentFirstUse has eight goroutines make the first
// routes of a fresh tape at once (run it under -race): two device counts of
// one expert count share a projection, which grows while others read it.
// Each must match the oracle, and the tape must hold one projection.
func TestProjectionConcurrentFirstUse(t *testing.T) {
	const tokens = 24
	type job struct {
		l    *Layer
		zipf bool
		gate Gate
		want []*Stats
	}
	var jobs []job
	for g := 0; g < 8; g++ {
		devices, perDevice := 8, 2
		if g%2 == 1 {
			devices, perDevice = 16, 1
		}
		l, err := NewGateLayer(Config{Devices: devices, ExpertsPerDevice: perDevice, Capacity: 9, Hidden: 16, FFN: 4}, 12345)
		if err != nil {
			t.Fatal(err)
		}
		j := job{l: l, zipf: g%4 < 2, gate: []Gate{SwitchGate{}, BatchPrioritizedGate{}}[g/4]}
		xs := tapeInputs(NewTape(31, 16, 0), l, tokens, j.zipf, 0.45)
		for k := 1; k <= 3; k++ {
			_, s := l.RouteOnly(xs, j.gate, k)
			j.want = append(j.want, s)
		}
		jobs = append(jobs, j)
	}
	tp := NewTape(31, 16, 16*tokens)
	var wg sync.WaitGroup
	for g, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r *Routing
			if j.zipf {
				r = tp.RouteSkewed(j.l, tokens, 0.45, j.gate)
			} else {
				r = tp.RouteHotExpert(j.l, tokens, 0.45, j.gate)
			}
			for k, want := range j.want {
				if got := r.Split(k + 1); !reflect.DeepEqual(got, want) {
					t.Errorf("user %d k=%d: concurrent tape routing differs from the oracle", g, k+1)
				}
			}
		}()
	}
	wg.Wait()
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if n := len(tp.projs); n != 1 {
		t.Errorf("tape holds %d projections, want 1", n)
	}
}

// TestProjectionBudget fills the tape's byte budget: a 256-expert layer's
// rows fit only in part, so later tokens take the exact path, and a second
// layer's projection does not fit at all. Both match the oracle and the
// tape stays within its budget.
func TestProjectionBudget(t *testing.T) {
	const tokens = 32
	tp := NewTape(3, 16, 128*tokens)
	for i, seed := range []int64{1, 2} {
		l, err := NewGateLayer(Config{Devices: 128, ExpertsPerDevice: 2, Capacity: 4, Hidden: 16, FFN: 4}, seed)
		if err != nil {
			t.Fatal(err)
		}
		c := checkTapeDecisions(t, tp, l, tokens, zipfBias(256, 1.1))
		switch {
		case i == 0 && (c.certified == 0 || c.exact == 0):
			t.Errorf("first layer: %+v; want a projected prefix and an exact tail", c)
		case i == 1 && c.certified+c.unbiased != 0:
			t.Errorf("second layer: %+v; want no projection once the budget is spent", c)
		}
		checkTapeSplits(t, tp, l, tokens, true, 1.1, SwitchGate{}, 2)
	}
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if tp.projBytes > projectionBudget || len(tp.projs) != 1 {
		t.Errorf("tape spends %d bytes on %d projections; budget %d on one", tp.projBytes, len(tp.projs), projectionBudget)
	}
}

// TestTapeRouteCountsPinned is the exact gate on the certificate's reach:
// over a fixed ladder of proxy-like shapes (the routing proxy's tape and
// gate seeds, hidden 16, 256 tokens per device, 8/16/32 devices of two
// experts, ten Zipf exponents in [0.5, 1.4] and ten hot shares in
// [0.15, 0.555]), the number of certified, unbiased and exact tokens is
// pinned. A looser bound moves tokens from certified to exact and fails
// here before it shows as a slowdown; a tighter one must be proven.
func TestTapeRouteCountsPinned(t *testing.T) {
	tp := NewTape(777, 16, 256*256)
	var got routeCounts
	for _, devices := range []int{8, 16, 32} {
		l, err := NewGateLayer(Config{Devices: devices, ExpertsPerDevice: 2, Capacity: 10, Hidden: 16, FFN: 16}, 12345)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			b := zipfBias(2*devices, 0.5+0.1*float64(i))
			if i >= 10 {
				b = hotBias(0.15 + 0.045*float64(i-10))
			}
			tb := tp.batch(l, 256, b, true)
			row := make([]float32, l.Cfg.TotalExperts())
			for d := 0; d < devices; d++ {
				for j := 0; j < 256; j++ {
					tb.top1(row, d, j)
				}
			}
			got.certified += tb.counts.certified
			got.unbiased += tb.counts.unbiased
			got.exact += tb.counts.exact
		}
	}
	want := routeCounts{certified: 193862, unbiased: 92856, exact: 2}
	if got != want {
		t.Errorf("ladder decided %+v, want %+v", got, want)
	}
	t.Logf("certified %.4f%% of %d biased tokens", 100*float64(got.certified)/float64(got.certified+got.exact), got.certified+got.exact)
}

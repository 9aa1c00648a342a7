package moe

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"lancet/internal/tensor"
)

// directSkewedInputs is the per-element generator SkewedInputs replaced: it
// draws every device's noise straight from the seed's stream, one normal
// and one Zipf pick at a time. It is the oracle the tape is pinned to.
func directSkewedInputs(l *Layer, tokens int, skew float64, seed int64) []*tensor.Tensor {
	cfg := l.Cfg
	rng := &splitmixRand{state: uint64(seed)}
	xs := make([]*tensor.Tensor, cfg.Devices)
	e := cfg.TotalExperts()
	for d := range xs {
		x := tensor.New(tokens, cfg.Hidden)
		for i := 0; i < tokens; i++ {
			row := x.Row(i)
			for j := range row {
				row[j] = float32(rng.norm())
			}
			if skew <= 0 {
				continue
			}
			weights, total := zipfWeights(e, skew)
			target := pickWeighted(rng.float(), weights, total)
			for j := range row {
				row[j] += float32(skew) * l.GateW.Data[j*e+target] * 50
			}
		}
		xs[d] = x
	}
	return xs
}

// directHotExpertInputs is HotExpertInputs' per-element oracle.
func directHotExpertInputs(l *Layer, tokens int, hotShare float64, seed int64) []*tensor.Tensor {
	cfg := l.Cfg
	rng := &splitmixRand{state: uint64(seed)}
	xs := make([]*tensor.Tensor, cfg.Devices)
	e := cfg.TotalExperts()
	for d := range xs {
		x := tensor.New(tokens, cfg.Hidden)
		for i := 0; i < tokens; i++ {
			row := x.Row(i)
			for j := range row {
				row[j] = float32(rng.norm())
			}
			if hotShare <= 0 || rng.float() >= hotShare {
				continue
			}
			for j := range row {
				row[j] += l.GateW.Data[j*e] * 100
			}
		}
		xs[d] = x
	}
	return xs
}

func sameInputs(a, b []*tensor.Tensor) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d devices vs %d", len(a), len(b))
	}
	for d := range a {
		if !a[d].Equal(b[d]) {
			return fmt.Errorf("device %d differs", d)
		}
		for i, v := range a[d].Data {
			if math.Float32bits(v) != math.Float32bits(b[d].Data[i]) {
				return fmt.Errorf("device %d element %d: %v vs %v", d, i, v, b[d].Data[i])
			}
		}
	}
	return nil
}

func tapeLayer(t testing.TB, devices, hidden int) *Layer {
	t.Helper()
	l, err := NewGateLayer(Config{Devices: devices, ExpertsPerDevice: 2, Capacity: 8, Hidden: hidden, FFN: 4}, 12345)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestTapeMatchesDirectGenerator reads one tape at device counts requested
// out of order, one of them beyond the retention bound, and checks each
// batch against the direct generator bit for bit, and that the tape keeps
// no more than its bound.
func TestTapeMatchesDirectGenerator(t *testing.T) {
	const tokens, hidden, seed = 12, 5, 777
	tp := NewTape(seed, hidden, 40*tokens) // retains 40 devices' tokens
	for i, devices := range []int{32, 16, 48, 1, 40, 41} {
		l := tapeLayer(t, devices, hidden)
		skew, hot := 0.5+0.1*float64(i), 0.15+0.08*float64(i)
		if err := sameInputs(tp.SkewedInputs(l, tokens, skew), directSkewedInputs(l, tokens, skew, seed)); err != nil {
			t.Fatalf("%d devices, skew %.2f: %v", devices, skew, err)
		}
		if err := sameInputs(tp.HotExpertInputs(l, tokens, hot), directHotExpertInputs(l, tokens, hot, seed)); err != nil {
			t.Fatalf("%d devices, hot %.2f: %v", devices, hot, err)
		}
		if kept := tp.kept(); kept > 40*tokens || kept < min(devices, 40)*tokens {
			t.Fatalf("after %d devices the tape keeps %d tokens; want the requested prefix up to 40 devices (%d tokens)", devices, kept, 40*tokens)
		}
	}
	// Another per-device batch size reads the same stream.
	l := tapeLayer(t, 7, hidden)
	if err := sameInputs(tp.SkewedInputs(l, 50, 1.2), directSkewedInputs(l, 50, 1.2, seed)); err != nil {
		t.Fatalf("50 tokens per device: %v", err)
	}
}

// TestTapeConcurrentFirstUsers has four goroutines make the first reads of
// a fresh tape at once (run it under -race); each must see exactly the
// direct generator's batch.
func TestTapeConcurrentFirstUsers(t *testing.T) {
	const tokens, hidden, seed = 16, 4, 31
	tp := NewTape(seed, hidden, 24*tokens)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g, devices := range []int{8, 24, 3, 30} {
		l := tapeLayer(t, devices, hidden)
		wg.Add(1)
		go func(g int, l *Layer) {
			defer wg.Done()
			if g%2 == 0 {
				errs[g] = sameInputs(tp.SkewedInputs(l, tokens, 1.1), directSkewedInputs(l, tokens, 1.1, seed))
			} else {
				errs[g] = sameInputs(tp.HotExpertInputs(l, tokens, 0.4), directHotExpertInputs(l, tokens, 0.4, seed))
			}
		}(g, l)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("user %d: %v", g, err)
		}
	}
}

// TestInputsMatchDirectGenerator pins the package-level generators, which
// read a private tape, to the direct ones over random seeds, shapes and
// parameters, zero and negative ones (the balanced, pick-free stream)
// included.
func TestInputsMatchDirectGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		l := tapeLayer(t, 1+rng.Intn(9), 1+rng.Intn(20))
		tokens, seed := 1+rng.Intn(30), rng.Int63()
		param := []float64{-1, 0, 0.05 + 2*rng.Float64()}[rng.Intn(3)]
		if err := sameInputs(SkewedInputs(l, tokens, param, seed), directSkewedInputs(l, tokens, param, seed)); err != nil {
			t.Fatalf("SkewedInputs skew %v: %v", param, err)
		}
		if err := sameInputs(HotExpertInputs(l, tokens, param/2, seed), directHotExpertInputs(l, tokens, param/2, seed)); err != nil {
			t.Fatalf("HotExpertInputs hot %v: %v", param/2, err)
		}
	}
}

func TestTapeRejectsOtherHiddenWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a tape read at another hidden width must panic")
		}
	}()
	NewTape(1, 8, 64).SkewedInputs(tapeLayer(t, 2, 4), 4, 1)
}

package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMulKnown(t *testing.T) {
	a := New(2, 3)
	copy(a.Data, []float32{1, 2, 3, 4, 5, 6})
	b := New(3, 2)
	copy(b.Data, []float32{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("matmul[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched matmul must panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatVecMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := Randn(rng, 1, 1, 5)
	w := Randn(rng, 1, 5, 4)
	mm := MatMul(x, w)
	mv := MatVec(x.Row(0), w)
	for i := range mv {
		if mv[i] != mm.Data[i] {
			t.Fatalf("matvec[%d] = %v, matmul = %v", i, mv[i], mm.Data[i])
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	Softmax(x)
	var sum float64
	for i, v := range x {
		sum += float64(v)
		if i > 0 && x[i] <= x[i-1] {
			t.Error("softmax must preserve ordering")
		}
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Errorf("softmax sums to %v", sum)
	}
	// Large values must not overflow.
	big := []float32{1000, 1001}
	Softmax(big)
	if math.IsNaN(float64(big[0])) || math.IsInf(float64(big[1]), 0) {
		t.Error("softmax unstable for large inputs")
	}
}

func TestTopK(t *testing.T) {
	x := []float32{0.1, 0.9, 0.5, 0.9, 0.2}
	got := TopK(x, 3)
	// Ties broken by lower index: 1 before 3.
	want := []int{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK = %v, want %v", got, want)
		}
	}
	if n := len(TopK(x, 10)); n != 5 {
		t.Errorf("TopK clamped to %d, want 5", n)
	}
}

// TestArgmaxMatchesSelection pins Argmax (and TopK's k=1 path) to the
// general selection loop, ties and NaNs included.
func TestArgmaxMatchesSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		x := make([]float32, 1+rng.Intn(9))
		for i := range x {
			x[i] = float32(rng.Intn(4)) // few values: ties are common
			if rng.Intn(20) == 0 {
				x[i] = float32(math.NaN())
			}
		}
		want := -1
		for i, v := range x {
			if want == -1 || v > x[want] {
				want = i
			}
		}
		if got := Argmax(x); got != want {
			t.Fatalf("Argmax(%v) = %d, want %d", x, got, want)
		}
		if got := TopK(x, 1); len(got) != 1 || got[0] != want {
			t.Fatalf("TopK(%v, 1) = %v, want [%d]", x, got, want)
		}
	}
}

func TestGeLUFixedPoints(t *testing.T) {
	x := []float32{0}
	GeLU(x)
	if x[0] != 0 {
		t.Error("gelu(0) must be 0")
	}
	y := []float32{10}
	GeLU(y)
	if math.Abs(float64(y[0])-10) > 1e-3 {
		t.Errorf("gelu(10) = %v, want ~10", y[0])
	}
	z := []float32{-10}
	GeLU(z)
	if math.Abs(float64(z[0])) > 1e-3 {
		t.Errorf("gelu(-10) = %v, want ~0", z[0])
	}
}

func TestCloneAndEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 3, 4)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone must equal original")
	}
	b.Data[0]++
	if a.Equal(b) {
		t.Error("mutated clone must differ")
	}
	if a.Equal(New(4, 3)) {
		t.Error("different shapes must differ")
	}
}

func TestAddScale(t *testing.T) {
	a := []float32{1, 2}
	Add(a, []float32{3, 4})
	if a[0] != 4 || a[1] != 6 {
		t.Errorf("add = %v", a)
	}
	Scale(a, 0.5)
	if a[0] != 2 || a[1] != 3 {
		t.Errorf("scale = %v", a)
	}
}

func TestRandnDeterministic(t *testing.T) {
	a := Randn(rand.New(rand.NewSource(42)), 0.02, 8, 8)
	b := Randn(rand.New(rand.NewSource(42)), 0.02, 8, 8)
	if !a.Equal(b) {
		t.Error("same seed must give identical tensors")
	}
}

// Property: matmul distributes over row partitioning — computing each row
// block independently gives bitwise-identical results. This is the
// numerical foundation of batch-axis operator partitioning.
func TestMatMulRowPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(6)
		k := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		a := Randn(rng, 1, m, k)
		w := Randn(rng, 1, k, n)
		whole := MatMul(a, w)
		split := m / 2
		top := &Tensor{Shape: []int{split, k}, Data: a.Data[:split*k]}
		bot := &Tensor{Shape: []int{m - split, k}, Data: a.Data[split*k:]}
		if split == 0 {
			return true
		}
		ct, cb := MatMul(top, w), MatMul(bot, w)
		for i := range ct.Data {
			if ct.Data[i] != whole.Data[i] {
				return false
			}
		}
		for i := range cb.Data {
			if cb.Data[i] != whole.Data[split*n+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero dim must panic")
		}
	}()
	New(3, 0)
}

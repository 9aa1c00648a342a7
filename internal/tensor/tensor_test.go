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

// naiveMatMulRow is the reference row kernel: the axpy loop MatMul ran
// before it was register-blocked. Each output starts at +0 and accumulates
// x[p]*b[p,j] over ascending p, skipping zero inputs.
func naiveMatMulRow(x []float32, b *Tensor) []float32 {
	n := b.Cols()
	out := make([]float32, n)
	for p, xv := range x {
		if xv == 0 {
			continue
		}
		br := b.Data[p*n : (p+1)*n]
		for j := range out {
			out[j] += xv * br[j]
		}
	}
	return out
}

// TestMatMulRowMatchesNaive pins the blocked kernel to the naive one bit for
// bit (sign of zero included) over generated shapes: odd widths, k = 1, and
// inputs and weights salted with +0, -0 and values of every magnitude.
func TestMatMulRowMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	negZero := float32(math.Copysign(0, -1))
	salt := func(v []float32) {
		for i := range v {
			switch rng.Intn(8) {
			case 0:
				v[i] = 0
			case 1:
				v[i] = negZero
			case 2:
				v[i] *= float32(math.Pow(10, float64(rng.Intn(13)-6)))
			}
		}
	}
	shapes := [][2]int{{1, 1}, {1, 7}, {16, 64}, {16, 65}, {3, 9}}
	for trial := 0; trial < 300; trial++ {
		shapes = append(shapes, [2]int{1 + rng.Intn(20), 1 + rng.Intn(37)})
	}
	for _, sh := range shapes {
		k, n := sh[0], sh[1]
		b := Randn(rng, 1, k, n)
		salt(b.Data)
		x := Randn(rng, 1, 1, k).Data
		salt(x)
		want := naiveMatMulRow(x, b)
		got := make([]float32, n)
		for j := range got {
			got[j] = float32(math.NaN()) // every output must be overwritten
		}
		MatMulRow(got, x, b)
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("k=%d n=%d: MatMulRow[%d] = %v, naive = %v (x=%v)", k, n, j, got[j], want[j], x)
			}
		}
		a := &Tensor{Shape: []int{1, k}, Data: x}
		if mm := MatMul(a, b); !bitsEqual(mm.Data, want) {
			t.Fatalf("k=%d n=%d: MatMul row differs from the naive kernel", k, n)
		}
		if mv := MatVec(x, b); !bitsEqual(mv, want) {
			t.Fatalf("k=%d n=%d: MatVec differs from the naive kernel", k, n)
		}
	}
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestMatMulRowShapePanic(t *testing.T) {
	for name, call := range map[string]func(){
		"short x":   func() { MatMulRow(make([]float32, 2), make([]float32, 2), New(3, 2)) },
		"short dst": func() { MatMulRow(make([]float32, 1), make([]float32, 3), New(3, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: mismatched MatMulRow must panic", name)
				}
			}()
			call()
		}()
	}
}

// softmaxArgmaxOracle is what SoftmaxArgmax must equal: the index Argmax
// picks from a softmax-normalized copy of x.
func softmaxArgmaxOracle(x []float32) int {
	return Argmax(Softmax(append([]float32(nil), x...)))
}

// TestSoftmaxArgmaxMatchesOracle pins the exponential-free top-1 decision
// to Argmax(Softmax(x)) over generated rows (near ties planted at every
// scale) and crafted edge cases: adjacent float32 logits, repeated maxima,
// signed zeros, infinities and NaNs before and after the maximum.
func TestSoftmaxArgmaxMatchesOracle(t *testing.T) {
	nan, inf, ninf := float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))
	negZero := float32(math.Copysign(0, -1))
	up := func(v float32) float32 { return math.Nextafter32(v, inf) }
	rows := [][]float32{
		{0.1, up(0.1)},             // one ulp apart: softmax rounds both to the same probability
		{up(0.1), 0.1},             // max first
		{1, up(1)},                 // one ulp apart near 1
		{0.5, 0.5 + 1e-6, 0.5 - 1}, // gap just at the threshold
		{3, 3, 3},                  // repeated maxima
		{-2, 5, 5, 1},              // repeated maxima after a smaller entry
		{negZero, 0},               // signed zeros tie
		{0, negZero},
		{negZero, 0, negZero},
		{ninf, 1},    // -Inf before the max
		{1, ninf},    // -Inf after it
		{ninf, ninf}, // all -Inf: the max is not finite
		{1, inf, 2},  // +Inf maximum
		{inf, inf},
		{nan, 1, 2}, // NaN first
		{1, nan, 2}, // NaN before the max
		{1, 2, nan}, // NaN after the max
		{0, 5, nan},
		{7},           // one expert
		{-3e38, 3e38}, // the difference overflows float32
		{3e38, -3e38},
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20000; trial++ {
		x := make([]float32, 1+rng.Intn(70))
		scale := math.Pow(10, float64(rng.Intn(16)-10))
		for i := range x {
			x[i] = float32(rng.NormFloat64() * scale)
		}
		// Plant a near tie below (or at) the maximum: some within the
		// threshold, some just beyond it, some one ulp away.
		best := Argmax(x)
		if i := rng.Intn(len(x)); i != best && rng.Intn(2) == 0 {
			switch rng.Intn(3) {
			case 0:
				x[i] = math.Nextafter32(x[best], ninf)
			case 1:
				x[i] = x[best] - float32(rng.Float64()*2e-6)
			default:
				x[i] = x[best]
			}
		}
		rows = append(rows, x)
	}
	for _, x := range rows {
		want := softmaxArgmaxOracle(x)
		if got := SoftmaxArgmax(append([]float32(nil), x...)); got != want {
			t.Fatalf("SoftmaxArgmax(%v) = %d, Argmax(Softmax) = %d", x, got, want)
		}
	}
}

// Package tensor is a minimal float32 tensor library — just enough numeric
// machinery to run a real MoE layer (gate projection, expert FFNs, top-k
// routing) so the routing-equivalence claims of the paper (Sec. 2.3,
// Challenge 1) can be verified bit-exactly rather than argued.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: invalid dim %d", d))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// Randn fills a new tensor with seeded unit normals scaled by std.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
	return t
}

// NumElems returns the element count.
func (t *Tensor) NumElems() int { return len(t.Data) }

// Rows returns the leading dimension of a 2-D tensor.
func (t *Tensor) Rows() int { return t.Shape[0] }

// Cols returns the trailing dimension of a 2-D tensor.
func (t *Tensor) Cols() int { return t.Shape[len(t.Shape)-1] }

// Row returns a view of row i of a 2-D tensor.
func (t *Tensor) Row(i int) []float32 {
	c := t.Cols()
	return t.Data[i*c : (i+1)*c]
}

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Equal reports exact (bitwise) equality of shape and data.
func (t *Tensor) Equal(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	for i := range t.Data {
		if t.Data[i] != o.Data[i] {
			return false
		}
	}
	return true
}

// MatMul computes a[m,k] x b[k,n] -> [m,n], one MatMulRow per row.
func MatMul(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		MatMulRow(out.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], b)
	}
	return out
}

// MatVec computes w[k,n]^T applied to one row x[k] -> [n].
func MatVec(x []float32, w *Tensor) []float32 {
	out := make([]float32, w.Cols())
	MatMulRow(out, x, w)
	return out
}

// MatMulRow writes the row x[k] times b[k,n] into dst[n], overwriting it.
// Every output starts at +0 and accumulates x[p]*b[p,j] over ascending p,
// skipping p where x[p] == 0 (either sign), with a plain multiply and add
// per step. That order is the whole contract: an output depends on its
// input row alone, and the result is the same bits however the rows of a
// batch are grouped. The kernel keeps a block of eight outputs in
// registers across the p loop instead of re-reading dst per step.
func MatMulRow(dst, x []float32, b *Tensor) {
	k, n := b.Shape[0], b.Shape[1]
	if len(x) != k || len(dst) != n {
		panic(fmt.Sprintf("tensor: matmul row mismatch [%d] x %v -> [%d]", len(x), b.Shape, len(dst)))
	}
	w := b.Data[:k*n]
	j := 0
	for ; j+8 <= n; j += 8 {
		var c0, c1, c2, c3, c4, c5, c6, c7 float32
		for p, a := range x {
			if a == 0 {
				continue
			}
			br := w[p*n+j : p*n+j+8 : p*n+j+8]
			c0 += a * br[0]
			c1 += a * br[1]
			c2 += a * br[2]
			c3 += a * br[3]
			c4 += a * br[4]
			c5 += a * br[5]
			c6 += a * br[6]
			c7 += a * br[7]
		}
		o := dst[j : j+8 : j+8]
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = c0, c1, c2, c3, c4, c5, c6, c7
	}
	for ; j < n; j++ {
		var c float32
		for p, a := range x {
			if a != 0 {
				c += a * w[p*n+j]
			}
		}
		dst[j] = c
	}
}

// GeLU applies the tanh-approximated GeLU in place and returns x.
func GeLU(x []float32) []float32 {
	for i, v := range x {
		f := float64(v)
		x[i] = float32(0.5 * f * (1 + math.Tanh(0.7978845608028654*(f+0.044715*f*f*f))))
	}
	return x
}

// Softmax normalizes a row in place and returns it.
func Softmax(x []float32) []float32 {
	max := x[0]
	for _, v := range x[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(float64(v - max))
		x[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range x {
		x[i] *= inv
	}
	return x
}

// TopK returns the indices of the k largest entries of x in descending
// order (ties broken by lower index).
func TopK(x []float32, k int) []int {
	if k > len(x) {
		k = len(x)
	}
	if k == 1 {
		return []int{Argmax(x)}
	}
	idx := make([]int, 0, k)
	taken := make([]bool, len(x))
	for n := 0; n < k; n++ {
		best := -1
		for i, v := range x {
			if taken[i] {
				continue
			}
			if best == -1 || v > x[best] {
				best = i
			}
		}
		taken[best] = true
		idx = append(idx, best)
	}
	return idx
}

// Argmax returns the index of the largest entry of x (ties broken by lower
// index) in one pass — TopK(x, 1)[0] without the selection bookkeeping. x
// must be non-empty.
func Argmax(x []float32) int {
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

// SoftmaxArgmax returns Argmax(Softmax(x)), the top-1 expert of a row of
// gate logits, and decides it without exponentials whenever it can. Only
// the fallback runs Softmax, in place on x, so x's contents are
// unspecified afterwards.
//
// Let m be the first maximum of x, at index best. When no entry is NaN, m
// is finite and every entry before best lies more than 1e-6 below m (in
// float64), Argmax(Softmax(x)) is best:
//   - Softmax maps each entry v to float32(float32(exp(float64(v-m)))*inv)
//     with inv = float32(1/sum), and each of those steps is monotone
//     non-decreasing in v, so an entry after best (v <= m) gets at most
//     the probability of best, which is float32(1)*inv = inv; Argmax keeps
//     the first of equal maxima.
//   - An entry before best with a float64 gap over 1e-6 has
//     d = float32(v-m) <= -(1e-6)(1-2^-23), and exp(d) lies more than 16.7
//     float32 ulps (2^-24 each, just below 1) under 1, so
//     e = float32(exp(d)) is at least 16 ulps below 1: e <= 1-2^-20.
//   - sum is 1 plus terms in [0, 1], so inv lies in [1/len(x), 1] and is
//     normal. e*inv then lies at least inv*2^-20 below inv, which is 8 or
//     more float32 steps at inv's exponent, so e*inv rounds strictly below
//     inv and the entry cannot win.
//
// The gap is checked once, against the largest entry before best: float64
// subtraction is monotone, so every smaller entry has a gap at least as
// large. Any NaN entry, or a maximum of ±Inf, makes Softmax return all NaN
// (m-m or v-m is NaN somewhere, and so is the sum), and Argmax of an
// all-NaN row is 0; those rows, and rows with a near tie before best, take
// the fallback.
func SoftmaxArgmax(x []float32) int {
	m, best := x[0], 0
	below := float32(math.Inf(-1)) // the largest entry before best
	if m != m {
		return Argmax(Softmax(x))
	}
	for i, v := range x[1:] {
		if v > m {
			below, m, best = m, v, i+1
		} else if v != v {
			return Argmax(Softmax(x))
		}
	}
	if !math.IsInf(float64(m), 0) && (best == 0 || float64(m)-float64(below) > 1e-6) {
		return best
	}
	return Argmax(Softmax(x))
}

// Add accumulates src into dst elementwise.
func Add(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: add length mismatch")
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// Scale multiplies a row by s in place and returns it.
func Scale(x []float32, s float32) []float32 {
	for i := range x {
		x[i] *= s
	}
	return x
}

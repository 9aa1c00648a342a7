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

// MatMul computes a[m,k] x b[k,n] -> [m,n].
func MatMul(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		ar := a.Data[i*k : (i+1)*k]
		or := out.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := ar[p]
			if av == 0 {
				continue
			}
			br := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				or[j] += av * br[j]
			}
		}
	}
	return out
}

// MatVec computes w[k,n]^T applied to one row x[k] -> [n].
func MatVec(x []float32, w *Tensor) []float32 {
	k, n := w.Shape[0], w.Shape[1]
	if len(x) != k {
		panic(fmt.Sprintf("tensor: matvec mismatch %d vs %v", len(x), w.Shape))
	}
	out := make([]float32, n)
	for p := 0; p < k; p++ {
		xv := x[p]
		if xv == 0 {
			continue
		}
		wr := w.Data[p*n : (p+1)*n]
		for j := 0; j < n; j++ {
			out[j] += xv * wr[j]
		}
	}
	return out
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

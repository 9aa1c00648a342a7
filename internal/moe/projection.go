package moe

import (
	"math"
	"sync"

	"lancet/internal/tensor"
)

// RouteSkewed returns l.Route(tp.SkewedInputs(l, tokens, skew), gate)
// without materializing the batch; see routeBiased.
func (tp *Tape) RouteSkewed(l *Layer, tokens int, skew float64, gate Gate) *Routing {
	if skew <= 0 {
		return l.Route(tp.balanced(l, tokens), gate)
	}
	r, _ := tp.routeBiased(l, tokens, zipfBias(l.Cfg.TotalExperts(), skew), gate)
	return r
}

// RouteHotExpert returns l.Route(tp.HotExpertInputs(l, tokens, hotShare),
// gate) without materializing the batch; see routeBiased.
func (tp *Tape) RouteHotExpert(l *Layer, tokens int, hotShare float64, gate Gate) *Routing {
	if hotShare <= 0 {
		return l.Route(tp.balanced(l, tokens), gate)
	}
	r, _ := tp.routeBiased(l, tokens, hotBias(hotShare), gate)
	return r
}

// routeCounts tallies how a top-1 gate decided a tape batch's tokens:
// certified from the projection, unbiased and decided from their projected
// row, or routed through the exact path (a failed certificate, or a token
// the projection does not hold).
type routeCounts struct{ certified, unbiased, exact int }

// routeBiased routes the tape's batch under bias b token by token, building
// a token's input only when it must. Switch and BPR decide each token's
// top-1 expert from the tape's cached projection of the gate (see
// projection) when the token is projected:
//   - an unbiased token's input is its noise row n, so its logits are its
//     projected row P = fl(n·W) bit for bit, and SoftmaxArgmax of a copy of
//     P is its decision;
//   - a biased token's decision is certified from P and the Gram matrix
//     (projection.certify), and built exactly when the certificate fails.
//
// Every other token, and every token of another gate, is built exactly as
// biased builds it and projected with tensor.MatMulRow, so the result is
// l.Route of the materialized batch for every gate.
func (tp *Tape) routeBiased(l *Layer, tokens int, b tokenBias, gate Gate) (*Routing, routeCounts) {
	project := false
	switch gate.(type) {
	case SwitchGate, BatchPrioritizedGate:
		project = true
	}
	tb := tp.batch(l, tokens, b, project)
	r := l.route(tokens, gate, tb)
	return r, tb.counts
}

// batch reads the tape's batch of tokens per device under bias b, with the
// gate's projection when project is set.
func (tp *Tape) batch(l *Layer, tokens int, b tokenBias, project bool) *tapeBatch {
	cfg := l.Cfg
	tp.checkHidden(cfg)
	n := cfg.Devices * tokens
	noise, picks := tp.read(n)
	tb := &tapeBatch{l: l, bias: b, tokens: tokens, noise: noise, picks: picks, x: make([]float32, cfg.Hidden)}
	if project {
		tb.proj, tb.rows = tp.projected(l.GateW, n)
	}
	return tb
}

// tapeBatch is a biased batch read straight from the tape: device d's token
// i is stream token d·tokens+i, its noise plus the bias's push.
type tapeBatch struct {
	l      *Layer
	bias   tokenBias
	tokens int
	noise  []float32
	picks  []float64
	x      []float32 // scratch: one token's input

	proj   *projection // nil: no token is projected
	rows   []float32   // proj's rows, for stream tokens < len(rows)/E
	counts routeCounts
}

// logits builds stream token s = d·tokens+i exactly as biased builds it
// and projects it.
func (b *tapeBatch) logits(row []float32, d, i int) {
	s := d*b.tokens + i
	h := len(b.x)
	copy(b.x, b.noise[s*h:(s+1)*h])
	if target, biased := b.bias.pick(b.picks[s]); biased {
		b.bias.push(b.l, b.x, target)
	}
	tensor.MatMulRow(row, b.x, b.l.GateW)
}

func (b *tapeBatch) top1(row []float32, d, i int) int {
	s := d*b.tokens + i
	target, biased := b.bias.pick(b.picks[s])
	if e := len(row); s < len(b.rows)/e {
		p := b.rows[s*e : (s+1)*e]
		if !biased {
			b.counts.unbiased++
			return tensor.SoftmaxArgmax(append(row[:0], p...))
		}
		h := len(b.x)
		if best, ok := b.proj.certify(p, b.noise[s*h:(s+1)*h], target, b.bias); ok {
			b.counts.certified++
			return best
		}
	}
	b.counts.exact++
	b.logits(row, d, i)
	return tensor.SoftmaxArgmax(row)
}

// projectionBudget bounds the bytes one tape spends on projections: rows,
// Gram matrices, norms and keys. It holds the proxy's 32- and 64-expert
// projections (512 KiB and 2 MiB of rows at 16 and 32 devices of 256
// tokens). Projections live as long as the tape. A projection that does
// not fit is not made, and rows past the budget are not projected: those
// tokens take the exact path.
const projectionBudget = 4 << 20

// projection caches one gate's view of a tape: the logits of the kept noise
// rows, P[s] = fl(noise_s·W) as tensor.MatMulRow computes them, and W's
// Gram matrix and column norms in float64, where W is the [H, E] gate
// weight matrix.
//
// A biased token's input is x = fl(n + b) with n its noise row and b the
// push, b_j = fl(fl(scale·W[j][t])·mult) toward target t, whose real
// coefficient is c = scale·mult. Its logits L_e = fl(x·W_e) (W_e is
// column e) are approximated by A_e = P_e + c·G[t][e]. With u = 2^-24 and
// γ = H·u/(1−H·u), the error is bounded per expert by
//
//	|L_e − A_e| ≤ ‖W_e‖·K,
//	K = γ(‖x‖ + ‖n‖) + u‖n‖ + (u(1+u)² + 2u + u²)|c|‖W_t‖,
//	‖x‖ ≤ (1+u)(‖n‖ + (1+u)²|c|‖W_t‖).
//
// Proof. x·W_e − n·W_e − c·G[t][e] = r·W_e with r = x − n − c·W_t, and
// x_j = (n_j + b_j)(1+δ), |δ| ≤ u, |b_j − c·W[j][t]| ≤ ((1+u)²−1)|c||W[j][t]|,
// so |r_j| ≤ u|n_j| + (u(1+u)² + 2u + u²)|c||W[j][t]|, and |r·W_e| ≤
// ‖r‖‖W_e‖ by Cauchy–Schwarz. A float32 dot product of H terms, summed in
// any order with any subset of zero terms skipped, is within γ·Σ|x_j||W_je|
// ≤ γ‖x‖‖W_e‖ of the real one (Higham, Thm. 3.1), so |L_e − x·W_e| ≤
// γ‖x‖‖W_e‖ and |P_e − n·W_e| ≤ γ‖n‖‖W_e‖. The triangle inequality adds the
// three. A fused multiply-add drops a rounding and stays inside the bound.
//
// bound and certify cover the rest. Float64 roundings in A, the norms and
// K are each within a relative (2H+20)·2^-53 (products of float32 values
// are exact in float64). Float32 underflow adds at most
// H(mult+2)·2^-150 to ‖r‖ and ‖x‖, and 2H·2^-150 to each dot product.
// Values that could overflow float32 are refused: with mult ≥ 1 every
// intermediate of the push is at most |c|‖W_t‖, and every partial dot
// product at most 2‖x‖‖W_e‖.
type projection struct {
	experts int
	gram    []float64 // [E*E]: gram[a*E+b] = Σ_j W[j][a]·W[j][b], over ascending j
	norms   []float64 // [E]: ‖W_e‖ = sqrt(gram[e*E+e])
	maxNorm float64

	mu   sync.Mutex
	rows []float32 // [R*E]: P for stream tokens < R; grown by copy, never mutated once published
}

// projected returns the tape's projection of gate weights w, and its rows
// for as many of the stream's first n tokens as are kept and fit the
// budget. It makes the projection on first use of w's bits; it returns nil
// when the projection does not fit.
func (tp *Tape) projected(w *tensor.Tensor, n int) (*projection, []float32) {
	key := make([]byte, 4*len(w.Data))
	for i, v := range w.Data {
		bits := math.Float32bits(v)
		key[4*i], key[4*i+1], key[4*i+2], key[4*i+3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
	}
	e := w.Cols()
	tp.mu.Lock()
	pr := tp.projs[string(key)]
	if pr == nil {
		size := len(key) + 8*e*e + 8*e
		if tp.projBytes+size > projectionBudget {
			tp.mu.Unlock()
			return nil, nil
		}
		pr = newProjection(w)
		if tp.projs == nil {
			tp.projs = make(map[string]*projection)
		}
		tp.projs[string(key)] = pr
		tp.projBytes += size
	}
	kept := min(n, len(tp.picks))
	tp.mu.Unlock()
	return pr, pr.grow(tp, w, kept)
}

func newProjection(w *tensor.Tensor) *projection {
	h, e := w.Rows(), w.Cols()
	pr := &projection{experts: e, gram: make([]float64, e*e), norms: make([]float64, e)}
	for a := 0; a < e; a++ {
		for b := a; b < e; b++ {
			var g float64
			for j := 0; j < h; j++ {
				g += float64(w.Data[j*e+a]) * float64(w.Data[j*e+b])
			}
			pr.gram[a*e+b], pr.gram[b*e+a] = g, g
		}
		pr.norms[a] = math.Sqrt(pr.gram[a*e+a])
		pr.maxNorm = max(pr.maxNorm, pr.norms[a])
	}
	return pr
}

// grow projects kept stream tokens up to n, as far as the tape's budget
// allows, and returns the rows. Concurrent first users wait for one
// projection.
func (pr *projection) grow(tp *Tape, w *tensor.Tensor, n int) []float32 {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	e := pr.experts
	have := len(pr.rows) / e
	if n <= have {
		return pr.rows
	}
	tp.mu.Lock()
	n = have + min(n-have, (projectionBudget-tp.projBytes)/(4*e))
	tp.projBytes += 4 * e * (n - have)
	tp.mu.Unlock()
	if n > have {
		noise, _ := tp.read(n)
		rows := make([]float32, n*e)
		copy(rows, pr.rows)
		for s := have; s < n; s++ {
			tensor.MatMulRow(rows[s*e:(s+1)*e], noise[s*tp.hidden:(s+1)*tp.hidden], w)
		}
		pr.rows = rows
	}
	return pr.rows
}

// bound returns K of the projection's error bound for a token with noise
// row n pushed toward target by b, grown to cover float64 rounding and
// float32 underflow, and a bound on every |A_e|. It reports false when
// the token's values could overflow float32; otherwise every P_e and A_e
// is finite.
func (pr *projection) bound(n []float32, target int, b tokenBias) (k, aMax float64, ok bool) {
	const u = 0x1p-24
	h := float64(len(n))
	gamma := h * u / (1 - h*u)
	var nn float64
	for _, v := range n {
		nn += float64(v) * float64(v)
	}
	nNorm := math.Sqrt(nn)
	ct := math.Abs(b.c()) * pr.norms[target]
	under := h * (math.Abs(float64(b.mult)) + 2) * 0x1p-150
	xNorm := (1+u)*(nNorm+(1+u)*(1+u)*ct) + under
	if !(xNorm*(1+pr.maxNorm) < 1e30) {
		return 0, 0, false
	}
	k = gamma*(xNorm+nNorm) + u*nNorm + (u*(1+u)*(1+u)+2*u+u*u)*ct + under
	// |A_e| ≤ |P_e| + |c||G[t][e]| ≤ ((1+γ)‖n‖ + |c|‖W_t‖)‖W_e‖, with room
	// for rounding.
	return k * (1 + (2*h+20)*0x1p-52), 2 * (nNorm + ct) * pr.maxNorm, true
}

// certify decides a biased token's top-1 expert from its projected noise
// row p, its noise row n, its target and bias b, without building its
// input. It takes best, the first maximum of A, and accepts it only if for
// every other expert e
//
//	A_best − A_e > K(‖W_best‖ + ‖W_e‖) + slack (+ 1e-6 + 1e-12 when e < best).
//
// Then L_best − L_e > 0 for every e, so L has its unique maximum at best,
// and L_best − L_e > 1e-6 + 1e-12 for every e before best, so the float64
// gap tensor.SoftmaxArgmax checks exceeds its 1e-6 rule: SoftmaxArgmax(L)
// is best without exponentials. Otherwise it reports false, and the caller
// builds the input and decides exactly. One check against the runner-up,
// the largest norm and the largest |A| implies all of them; only when it
// fails are the experts checked one by one.
func (pr *projection) certify(p, n []float32, target int, b tokenBias) (int, bool) {
	c := b.c()
	e := pr.experts
	g := pr.gram[target*e : (target+1)*e]
	best, top, second := 0, math.Inf(-1), math.Inf(-1)
	for j, v := range p {
		if a := float64(v) + c*g[j]; a > top {
			best, top, second = j, a, top
		} else if a > second {
			second = a
		}
	}
	k, aMax, ok := pr.bound(n, target, b)
	if !ok {
		return 0, false
	}
	// The slack covers the float64 roundings of A and of the gaps (within
	// eps of |A| and |c|‖W_t‖‖W_e‖) and float32 underflow in L and P.
	eps := float64(len(n)+4) * 0x1p-52
	under := float64(4*len(n)) * 0x1p-150
	kc := k + eps*math.Abs(c)*pr.norms[target]
	nb := pr.norms[best]
	if top-second > kc*(nb+pr.maxNorm)+2*eps*aMax+under+1e-6+1e-12 {
		return best, true
	}
	for j, v := range p {
		if j == best {
			continue
		}
		a := float64(v) + c*g[j]
		need := kc*(nb+pr.norms[j]) + eps*(math.Abs(top)+math.Abs(a)) + under
		if j < best {
			need += 1e-6 + 1e-12
		}
		if !(top-a > need) {
			return 0, false
		}
	}
	return best, true
}

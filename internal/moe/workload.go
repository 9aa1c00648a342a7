package moe

import (
	"fmt"
	"math"
	"sync"

	"lancet/internal/tensor"
)

// SkewedInputs builds token batches whose gate scores are biased toward a
// few "hot" experts with Zipf-like popularity. skew = 0 reproduces balanced
// random routing; larger values concentrate tokens on low-index experts,
// stressing capacity overflow, token dropping and irregular all-to-all
// imbalance — the dynamic workloads FasterMoE and Tutel's adaptive
// parallelism target. It reads a private tape of the seed's stream.
func SkewedInputs(l *Layer, tokens int, skew float64, seed int64) []*tensor.Tensor {
	return NewTape(seed, l.Cfg.Hidden, 0).SkewedInputs(l, tokens, skew)
}

// HotExpertInputs builds token batches where roughly the fraction hotShare
// of every device's tokens is biased toward a single hot expert (global
// expert 0) and the rest routes like a balanced random workload. It is the
// single-hot-spot companion to SkewedInputs' Zipf tail: the device hosting
// expert 0 becomes a pure ingress bottleneck, the scenario FasterMoE's
// expert shadowing — and Lancet's skew-aware planning (DESIGN.md §10) —
// target. hotShare <= 0 reproduces the balanced workload. It reads a
// private tape of the seed's stream.
func HotExpertInputs(l *Layer, tokens int, hotShare float64, seed int64) []*tensor.Tensor {
	return NewTape(seed, l.Cfg.Hidden, 0).HotExpertInputs(l, tokens, hotShare)
}

// Tape is the synthetic token noise of one seed at one hidden width. A
// biased batch (skew > 0 or hotShare > 0) consumes the seed's stream the
// same way for both generators: per token, hidden unit normals and then
// one uniform that picks the token's bias. Device d of a batch of T tokens
// per device reads tokens [d*T, (d+1)*T) of that stream, whatever the
// device count, so one tape serves every batch: the noise is drawn once
// and only the bias is added per batch.
//
// The tape keeps the stream's first retain tokens, materialized only as far
// as requested (72 bytes per token at hidden 16). A longer request
// extends a private copy and leaves the kept prefix as it is. The routing
// entry points (RouteSkewed, RouteHotExpert) also keep, per gate, the
// projection of the kept tokens' noise, within projectionBudget bytes. A
// Tape is safe for concurrent use.
type Tape struct {
	seed   int64
	hidden int
	retain int

	mu        sync.Mutex
	noise     []float32 // hidden normals per kept token; never mutated once kept
	picks     []float64 // one uniform per kept token
	rng       splitmixRand
	projs     map[string]*projection // by the gate weights' bits
	projBytes int                    // held by projs, charged against projectionBudget
}

// NewTape returns an empty tape of seed's stream at the given hidden width
// that keeps at most retain tokens.
func NewTape(seed int64, hidden, retain int) *Tape {
	return &Tape{seed: seed, hidden: hidden, retain: retain, rng: splitmixRand{state: uint64(seed)}}
}

// SkewedInputs is SkewedInputs(l, tokens, skew, seed) for the tape's seed.
func (tp *Tape) SkewedInputs(l *Layer, tokens int, skew float64) []*tensor.Tensor {
	if skew <= 0 {
		return tp.balanced(l, tokens)
	}
	return tp.biased(l, tokens, zipfBias(l.Cfg.TotalExperts(), skew))
}

// HotExpertInputs is HotExpertInputs(l, tokens, hotShare, seed) for the
// tape's seed.
func (tp *Tape) HotExpertInputs(l *Layer, tokens int, hotShare float64) []*tensor.Tensor {
	if hotShare <= 0 {
		return tp.balanced(l, tokens)
	}
	return tp.biased(l, tokens, hotBias(hotShare))
}

// tokenBias is a biased batch's per-token rule. pick maps a token's pick
// uniform to the expert whose gate direction (that column of GateW) the
// token is pushed toward, or reports the token unbiased; push adds
// scale·GateW[j][target]·mult to each element j of the token's row in
// float32, rounding after each multiply and after the add. The push's
// real-valued coefficient c = scale·mult is exact in float64.
type tokenBias struct {
	pick        func(u float64) (target int, biased bool)
	scale, mult float32
}

// zipfBias pushes every token toward a Zipf-picked expert by skew·50.
func zipfBias(experts int, skew float64) tokenBias {
	weights, total := zipfWeights(experts, skew)
	return tokenBias{
		pick:  func(u float64) (int, bool) { return pickWeighted(u, weights, total), true },
		scale: float32(skew), mult: 50,
	}
}

// hotBias pushes the fraction hotShare of tokens toward the hot expert
// (global expert 0) by 100; scale 1 multiplies exactly.
func hotBias(hotShare float64) tokenBias {
	return tokenBias{
		pick:  func(u float64) (int, bool) { return 0, u < hotShare },
		scale: 1, mult: 100,
	}
}

func (b tokenBias) c() float64 { return float64(b.scale) * float64(b.mult) }

func (b tokenBias) push(l *Layer, row []float32, target int) {
	e := l.Cfg.TotalExperts()
	for j := range row {
		row[j] += b.scale * l.GateW.Data[j*e+target] * b.mult
	}
}

// biased copies each device's noise out of the tape and applies the bias to
// every token with the token's pick uniform.
func (tp *Tape) biased(l *Layer, tokens int, b tokenBias) []*tensor.Tensor {
	cfg := l.Cfg
	tp.checkHidden(cfg)
	noise, picks := tp.read(cfg.Devices * tokens)
	xs := make([]*tensor.Tensor, cfg.Devices)
	for d := range xs {
		x := tensor.New(tokens, cfg.Hidden)
		copy(x.Data, noise[d*len(x.Data):])
		for i, u := range picks[d*tokens : (d+1)*tokens] {
			if target, ok := b.pick(u); ok {
				b.push(l, x.Row(i), target)
			}
		}
		xs[d] = x
	}
	return xs
}

// balanced draws an unbiased batch. It draws no picks, so its stream is
// not the tape's: it is generated fresh from the seed.
func (tp *Tape) balanced(l *Layer, tokens int) []*tensor.Tensor {
	cfg := l.Cfg
	tp.checkHidden(cfg)
	rng := splitmixRand{state: uint64(tp.seed)}
	xs := make([]*tensor.Tensor, cfg.Devices)
	for d := range xs {
		xs[d] = tensor.New(tokens, cfg.Hidden)
		rng.draw(xs[d].Data, nil, cfg.Hidden)
	}
	return xs
}

func (tp *Tape) checkHidden(cfg Config) {
	if cfg.Hidden != tp.hidden {
		panic(fmt.Sprintf("moe: tape of hidden width %d read at width %d", tp.hidden, cfg.Hidden))
	}
}

// read returns the stream's first n tokens: the kept prefix, grown first
// toward n up to the retention bound, and beyond the bound a private
// extension of it.
func (tp *Tape) read(n int) ([]float32, []float64) {
	tp.mu.Lock()
	if have := len(tp.picks); n > have && have < tp.retain {
		tp.noise, tp.picks = extend(tp.noise, tp.picks, &tp.rng, min(n, tp.retain), tp.hidden)
	}
	noise, picks, rng := tp.noise, tp.picks, tp.rng
	tp.mu.Unlock()
	if n <= len(picks) {
		return noise[:n*tp.hidden], picks[:n]
	}
	return extend(noise, picks, &rng, n, tp.hidden)
}

// kept is the number of tokens the tape retains.
func (tp *Tape) kept() int {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return len(tp.picks)
}

// extend copies a stream prefix into fresh slices of n tokens and draws the
// rest from rng, which holds the stream's state after the prefix.
func extend(noise []float32, picks []float64, rng *splitmixRand, n, hidden int) ([]float32, []float64) {
	grown, grownPicks := make([]float32, n*hidden), make([]float64, n)
	copy(grown, noise)
	copy(grownPicks, picks)
	rng.draw(grown[len(noise):], grownPicks[len(picks):], hidden)
	return grown, grownPicks
}

// zipfWeights returns the (unnormalized) Zipf weight table over n experts,
// weight 1/(rank+1)^skew, and its sum in ascending rank order.
func zipfWeights(n int, skew float64) ([]float64, float64) {
	total := 0.0
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		w := 1.0 / math.Pow(float64(i+1), skew)
		weights[i] = w
		total += w
	}
	return weights, total
}

// pickWeighted maps a uniform u in [0, 1) to an index of the weight table by
// inverse CDF walk.
func pickWeighted(u float64, weights []float64, total float64) int {
	u *= total
	for i, w := range weights {
		u -= w
		if u <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

// splitmixRand is a tiny deterministic RNG so skewed workloads are
// reproducible without threading *rand.Rand through the API.
type splitmixRand struct{ state uint64 }

func (r *splitmixRand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return splitmix(r.state)
}

func (r *splitmixRand) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// norm approximates a unit normal via the sum of uniforms (Irwin-Hall).
func (r *splitmixRand) norm() float64 {
	s := 0.0
	for i := 0; i < 12; i++ {
		s += r.float()
	}
	return s - 6
}

// draw is the one synthetic-noise generator: it fills noise with
// len(noise)/hidden tokens of the stream, each hidden normals followed,
// when picks is non-nil, by the token's pick uniform.
func (r *splitmixRand) draw(noise []float32, picks []float64, hidden int) {
	for t := 0; len(noise) > 0; t++ {
		for j := range noise[:hidden] {
			noise[j] = float32(r.norm())
		}
		noise = noise[hidden:]
		if picks != nil {
			picks[t] = r.float()
		}
	}
}

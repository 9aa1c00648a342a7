package moe

import (
	"fmt"
	"math/rand"

	"lancet/internal/tensor"
)

// Config sizes a functional MoE layer across simulated devices.
type Config struct {
	Devices          int
	ExpertsPerDevice int
	// Capacity is C: the per-device per-expert dispatch capacity.
	Capacity int
	Hidden   int
	FFN      int
}

// TotalExperts is the global expert count.
func (c Config) TotalExperts() int { return c.Devices * c.ExpertsPerDevice }

// Validate checks config invariants.
func (c Config) Validate() error {
	if c.Devices <= 0 || c.ExpertsPerDevice <= 0 || c.Capacity <= 0 || c.Hidden <= 0 || c.FFN <= 0 {
		return fmt.Errorf("moe: non-positive config field: %+v", c)
	}
	return nil
}

// Layer holds the (replicated) gate projection and the expert-parallel FFN
// weights of one MoE layer.
type Layer struct {
	Cfg   Config
	GateW *tensor.Tensor   // [H, E], replicated on every device
	W1    []*tensor.Tensor // per global expert: [H, F]
	W2    []*tensor.Tensor // per global expert: [F, H]
}

// NewLayer initializes deterministic weights from the seed.
func NewLayer(cfg Config, seed int64) (*Layer, error) {
	l, rng, err := newGateLayer(cfg, seed)
	if err != nil {
		return nil, err
	}
	for e := 0; e < cfg.TotalExperts(); e++ {
		l.W1 = append(l.W1, tensor.Randn(rng, 0.02, cfg.Hidden, cfg.FFN))
		l.W2 = append(l.W2, tensor.Randn(rng, 0.02, cfg.FFN, cfg.Hidden))
	}
	return l, nil
}

// NewGateLayer initializes only the gate projection: GateW is drawn first
// from the seed, so it equals NewLayer(cfg, seed).GateW, and the expert
// weights are left nil. The layer supports gating (Route, RouteOnly) and
// the input generators, not Forward.
func NewGateLayer(cfg Config, seed int64) (*Layer, error) {
	l, _, err := newGateLayer(cfg, seed)
	return l, err
}

func newGateLayer(cfg Config, seed int64) (*Layer, *rand.Rand, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	return &Layer{Cfg: cfg, GateW: tensor.Randn(rng, 0.02, cfg.Hidden, cfg.TotalExperts())}, rng, nil
}

// OwnerDevice returns the device hosting global expert e.
func (l *Layer) OwnerDevice(e int) int { return e / l.Cfg.ExpertsPerDevice }

// Stats aggregates what one forward pass moved and dropped.
type Stats struct {
	// Dropped counts routing slots that lost the capacity race.
	Dropped int
	// Routed counts slots that got capacity.
	Routed int
	// SendTokens[src][dst] sums dispatched tokens over all micro-batches.
	SendTokens [][]int
	// MicroSendTokens[m][src] is the tokens device src dispatched in
	// micro-batch m — the irregular partition sizes of paper Fig. 5c.
	MicroSendTokens [][]int
	// ExpertTokens[e] is the total tokens routed to global expert e —
	// the per-expert load that shadowing-style optimizations key on.
	ExpertTokens []int
	// PaddedTokensPerDevice is E*C, the static dispatch buffer size a
	// padded (non-irregular) all-to-all would always transmit.
	PaddedTokensPerDevice int
}

// HottestExpertShare is the fraction of all routed tokens destined for the
// single most popular expert.
func (s *Stats) HottestExpertShare() float64 {
	if s.Routed == 0 {
		return 0
	}
	max := 0
	for _, n := range s.ExpertTokens {
		if n > max {
			max = n
		}
	}
	return float64(max) / float64(s.Routed)
}

// ActualA2ABytes returns, per device, the payload of one dispatch
// all-to-all when only routed tokens move (elemBytes is the element size
// times hidden width).
func (s *Stats) ActualA2ABytes(perTokenBytes int64) []int64 {
	out := make([]int64, len(s.SendTokens))
	for src, row := range s.SendTokens {
		var n int64
		for _, c := range row {
			n += int64(c)
		}
		out[src] = n * perTokenBytes
	}
	return out
}

// Forward runs the MoE layer unpartitioned: gate, dispatch all-to-all,
// experts, combine all-to-all, gather. xs[d] is device d's [T, H] input.
func (l *Layer) Forward(xs []*tensor.Tensor, gate Gate) ([]*tensor.Tensor, *Stats) {
	return l.ForwardMicroBatched(xs, gate, 1)
}

// ForwardMicroBatched runs the same layer with each device's batch split
// into k micro-batches pipelined through gating with a shared capacity
// state (capacity passing). For partial-batch-safe gates the result is
// bit-identical to Forward.
func (l *Layer) ForwardMicroBatched(xs []*tensor.Tensor, gate Gate, k int) ([]*tensor.Tensor, *Stats) {
	cfg := l.Cfg
	if len(xs) != cfg.Devices {
		panic(fmt.Sprintf("moe: %d inputs for %d devices", len(xs), cfg.Devices))
	}
	if k < 1 {
		k = 1
	}
	stats := newStats(cfg)
	ys := make([]*tensor.Tensor, cfg.Devices)
	for d := range ys {
		ys[d] = tensor.New(xs[d].Shape...)
	}
	states := make([]*CapacityState, cfg.Devices)
	for d := range states {
		states[d] = NewCapacityState(cfg.TotalExperts(), cfg.Capacity)
	}

	t := xs[0].Rows()
	for m := 0; m < k; m++ {
		lo, hi := chunk(t, k, m)
		if lo == hi {
			continue
		}
		send := make([][][]Item, cfg.Devices)
		microSent := make([]int, cfg.Devices)
		for d := 0; d < cfg.Devices; d++ {
			send[d] = make([][]Item, cfg.Devices)
			block := &tensor.Tensor{Shape: []int{hi - lo, cfg.Hidden}, Data: xs[d].Data[lo*cfg.Hidden : hi*cfg.Hidden]}
			scores := tensor.MatMul(block, l.GateW)
			routes := gate.Route(scores, lo, states[d])
			for i, r := range routes {
				for _, s := range r.Slots {
					if !s.Kept {
						stats.Dropped++
						continue
					}
					stats.Routed++
					stats.ExpertTokens[s.Expert]++
					dst := l.OwnerDevice(s.Expert)
					send[d][dst] = append(send[d][dst], Item{
						SrcDev: d, TokenIdx: lo + i,
						Expert: s.Expert, Weight: s.Weight,
						Vec: block.Row(i),
					})
					stats.SendTokens[d][dst]++
					microSent[d]++
				}
			}
		}
		stats.MicroSendTokens = append(stats.MicroSendTokens, microSent)

		// Dispatch all-to-all (irregular, two-phase).
		recv, _ := IrregularAllToAll(send)

		// Expert computation on each owning device, then route results
		// back via the combine all-to-all.
		back := make([][][]Item, cfg.Devices)
		for d := range back {
			back[d] = make([][]Item, cfg.Devices)
		}
		for d := 0; d < cfg.Devices; d++ {
			for _, it := range recv[d] {
				h := tensor.GeLU(tensor.MatVec(it.Vec, l.W1[it.Expert]))
				out := tensor.MatVec(h, l.W2[it.Expert])
				back[d][it.SrcDev] = append(back[d][it.SrcDev], Item{
					SrcDev: it.SrcDev, TokenIdx: it.TokenIdx,
					Expert: it.Expert, Weight: it.Weight, Vec: out,
				})
			}
		}
		returned, _ := IrregularAllToAll(back)

		// Gather: restore token order, combining weighted expert outputs.
		for d := 0; d < cfg.Devices; d++ {
			for _, it := range returned[d] {
				row := ys[d].Row(it.TokenIdx)
				scaled := tensor.Scale(append([]float32(nil), it.Vec...), it.Weight)
				tensor.Add(row, scaled)
			}
		}
	}
	return ys, stats
}

// RouteOnly runs just the gating of every device, split into k
// micro-batches with capacity passing, and returns the per-token routes. It
// re-runs the gate projection per micro-batch and is the reference oracle
// Route + Split is pinned against; callers that need several splits of one
// batch use Route once and Split per k. k < 1 is treated as 1.
func (l *Layer) RouteOnly(xs []*tensor.Tensor, gate Gate, k int) ([][]TokenRoute, *Stats) {
	cfg := l.Cfg
	if k < 1 {
		k = 1
	}
	stats := newStats(cfg)
	all := make([][]TokenRoute, cfg.Devices)
	states := make([]*CapacityState, cfg.Devices)
	for d := range states {
		states[d] = NewCapacityState(cfg.TotalExperts(), cfg.Capacity)
		all[d] = make([]TokenRoute, xs[d].Rows())
	}
	t := xs[0].Rows()
	for m := 0; m < k; m++ {
		lo, hi := chunk(t, k, m)
		if lo == hi {
			continue
		}
		microSent := make([]int, cfg.Devices)
		for d := 0; d < cfg.Devices; d++ {
			block := &tensor.Tensor{Shape: []int{hi - lo, cfg.Hidden}, Data: xs[d].Data[lo*cfg.Hidden : hi*cfg.Hidden]}
			scores := tensor.MatMul(block, l.GateW)
			routes := gate.Route(scores, lo, states[d])
			copy(all[d][lo:], routes)
			microSent[d] = stats.count(cfg, d, routes)
		}
		stats.MicroSendTokens = append(stats.MicroSendTokens, microSent)
	}
	return all, stats
}

// chunk returns the [lo, hi) row range of micro-batch m of k over t rows.
func chunk(t, k, m int) (int, int) {
	base, rem := t/k, t%k
	lo := m*base + min(m, rem)
	size := base
	if m < rem {
		size++
	}
	return lo, lo + size
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func zeroMatrix(r, c int) [][]int {
	m := make([][]int, r)
	for i := range m {
		m[i] = make([]int, c)
	}
	return m
}

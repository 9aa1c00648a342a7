package moe

import (
	"fmt"

	"lancet/internal/tensor"
)

// Routing is the k-free outcome of one gate run over every device's whole
// batch: each token's decision, reduced to the compact data capacity
// admission needs to replay any micro-batch split. Split(k) then equals
// RouteOnly(xs, gate, k) bit for bit without re-running the projection,
// because tensor.MatMulRow computes each output row from its input row
// alone: a chunk's scores are rows of the whole batch's scores.
//
// What a split needs depends on how the gate admits tokens (paper
// Sec. 2.3):
//   - arrival-order gates (partial-batch safe: Switch, Top-2, Random, Hash)
//     admit in token order through capacity passing, so every split makes
//     the same decisions; the whole-batch totals hold for all k and only
//     the per-token kept-slot counts are regrouped into micro-batches;
//   - Batch Prioritized Routing re-sorts each chunk by importance, so each
//     token's expert and importance are kept and admission is replayed;
//   - expert choice admits min(remaining, chunk) tokens per expert and
//     keeps every slot, whatever the scores, so its split is closed form
//     and the routing keeps nothing but the batch size.
//
// A Routing is immutable; Split may be called concurrently.
type Routing struct {
	cfg    Config
	tokens int // rows per device batch

	whole      *Stats    // arrival order: totals of the whole batch
	keptPrefix [][]int32 // arrival order: [d][t] slots kept by tokens < t
	prio       [][]prioToken
}

// Route runs the gate projection and the per-token decision once per device
// batch (the first xs[0].Rows() rows of each device, the range RouteOnly
// splits) and keeps what Split needs. It supports the arrival-order gates,
// Batch Prioritized Routing and expert choice, and panics on any other gate
// that is not partial-batch safe.
//
// The projection runs row by row into one reused buffer. The Switch gate
// decides each row with tensor.SoftmaxArgmax, which skips the exponentials
// when the top-1 expert is clear: the path never reads a slot weight. Other
// arrival-order gates see one reused [T, E] score block per device.
func (l *Layer) Route(xs []*tensor.Tensor, gate Gate) *Routing {
	cfg := l.Cfg
	t := xs[0].Rows()
	r := &Routing{cfg: cfg, tokens: t}
	e := cfg.TotalExperts()
	switch gate.(type) {
	case ExpertChoiceGate:
		return r
	case BatchPrioritizedGate:
		r.prio = make([][]prioToken, cfg.Devices)
		row := make([]float32, e)
		for d := range r.prio {
			toks := make([]prioToken, t)
			for i := range toks {
				tensor.MatMulRow(row, xs[d].Row(i), l.GateW)
				toks[i] = prioritizeRow(row)
			}
			r.prio[d] = toks
		}
		return r
	}
	if !gate.PartialBatchSafe() {
		panic(fmt.Sprintf("moe: Route cannot replay splits of gate %q", gate.Name()))
	}
	r.whole = newStats(cfg)
	r.keptPrefix = make([][]int32, cfg.Devices)
	_, switchGate := gate.(SwitchGate)
	var row []float32
	var scores *tensor.Tensor
	if switchGate {
		row = make([]float32, e)
	} else {
		scores = tensor.New(t, e)
	}
	for d := range r.keptPrefix {
		prefix := make([]int32, t+1)
		st := NewCapacityState(e, cfg.Capacity)
		if switchGate {
			for i := 0; i < t; i++ {
				tensor.MatMulRow(row, xs[d].Row(i), l.GateW)
				kept := int32(0)
				if ex := tensor.SoftmaxArgmax(row); st.take(ex) {
					r.whole.admit(cfg, d, ex)
					kept = 1
				} else {
					r.whole.Dropped++
				}
				prefix[i+1] = prefix[i] + kept
			}
		} else {
			for i := 0; i < t; i++ {
				tensor.MatMulRow(scores.Row(i), xs[d].Row(i), l.GateW)
			}
			routes := gate.Route(scores, 0, st)
			for i := range routes {
				prefix[i+1] = prefix[i] + int32(r.whole.count(cfg, d, routes[i:i+1]))
			}
		}
		r.keptPrefix[d] = prefix
	}
	return r
}

// Split replays capacity admission over k micro-batches, with fresh
// capacity passed between them, and returns the statistics
// RouteOnly(xs, gate, k) reports. Empty micro-batches (k > tokens) are
// skipped as RouteOnly skips them; k < 1 is treated as 1.
func (r *Routing) Split(k int) *Stats {
	if k < 1 {
		k = 1
	}
	cfg := r.cfg
	var s *Stats
	var states []*CapacityState
	switch {
	case r.whole != nil:
		s = r.whole.clone()
	case r.prio != nil:
		s = newStats(cfg)
		states = make([]*CapacityState, cfg.Devices)
		for d := range states {
			states[d] = NewCapacityState(cfg.TotalExperts(), cfg.Capacity)
		}
	default:
		s = newStats(cfg)
	}
	remaining := cfg.Capacity // expert choice: every expert's, on every device
	for m := 0; m < k; m++ {
		lo, hi := chunk(r.tokens, k, m)
		if lo == hi {
			continue
		}
		microSent := make([]int, cfg.Devices)
		switch {
		case r.whole != nil:
			for d := range microSent {
				microSent[d] = int(r.keptPrefix[d][hi] - r.keptPrefix[d][lo])
			}
		case r.prio != nil:
			for d := range microSent {
				toks := r.prio[d][lo:hi]
				for _, i := range priorityOrder(toks) {
					if e := int(toks[i].expert); states[d].take(e) {
						s.admit(cfg, d, e)
						microSent[d]++
					} else {
						s.Dropped++
					}
				}
			}
		default:
			n := min(remaining, hi-lo)
			s.admitEveryExpert(cfg, n, microSent)
			remaining -= n
		}
		s.MicroSendTokens = append(s.MicroSendTokens, microSent)
	}
	return s
}

// admitEveryExpert records n kept slots from every device to every expert
// and adds each device's total to sent: one expert-choice chunk.
func (s *Stats) admitEveryExpert(cfg Config, n int, sent []int) {
	e := cfg.TotalExperts()
	s.Routed += n * e * cfg.Devices
	for ex := range s.ExpertTokens {
		s.ExpertTokens[ex] += n * cfg.Devices
	}
	for d, row := range s.SendTokens {
		for dst := range row {
			row[dst] += n * cfg.ExpertsPerDevice
		}
		sent[d] += n * e
	}
}

func newStats(cfg Config) *Stats {
	return &Stats{
		SendTokens:            zeroMatrix(cfg.Devices, cfg.Devices),
		ExpertTokens:          make([]int, cfg.TotalExperts()),
		PaddedTokensPerDevice: cfg.TotalExperts() * cfg.Capacity,
	}
}

// clone deep-copies the totals (not the micro-batch rows).
func (s *Stats) clone() *Stats {
	c := &Stats{
		Dropped: s.Dropped, Routed: s.Routed,
		SendTokens:            make([][]int, len(s.SendTokens)),
		ExpertTokens:          append([]int(nil), s.ExpertTokens...),
		PaddedTokensPerDevice: s.PaddedTokensPerDevice,
	}
	for i, row := range s.SendTokens {
		c.SendTokens[i] = append([]int(nil), row...)
	}
	return c
}

// count tallies device d's routed block into the totals and returns the
// slots it kept — what the device dispatches for the block.
func (s *Stats) count(cfg Config, d int, routes []TokenRoute) int {
	kept := 0
	for _, r := range routes {
		for _, sl := range r.Slots {
			if sl.Kept {
				s.admit(cfg, d, sl.Expert)
				kept++
			} else {
				s.Dropped++
			}
		}
	}
	return kept
}

// admit records one kept slot from device d to global expert e.
func (s *Stats) admit(cfg Config, d, e int) {
	s.Routed++
	s.ExpertTokens[e]++
	s.SendTokens[d][e/cfg.ExpertsPerDevice]++
}

package moe

import "lancet/internal/tensor"

// Routing is the k-free outcome of one gate run over every device's whole
// batch: the gate projection and each token's decision, reduced to the
// compact data capacity admission needs to replay any micro-batch split.
// Split(k) then equals RouteOnly(xs, gate, k) bit for bit without re-running
// the projection, because tensor.MatMul computes each output row from its
// input row alone: a chunk's scores are rows of the whole batch's scores.
//
// What a split needs depends on how the gate admits tokens (paper
// Sec. 2.3):
//   - arrival-order gates (partial-batch safe: Switch, Top-2, Random, Hash)
//     admit in token order through capacity passing, so every split makes
//     the same decisions; the whole-batch totals hold for all k and only
//     the per-token kept-slot counts are regrouped into micro-batches;
//   - Batch Prioritized Routing re-sorts each chunk by importance, so each
//     token's expert and importance are kept and admission is replayed;
//   - any other gate (expert choice) ranks tokens per expert within the
//     chunk, so its score rows are kept and replayed through Gate.Route on
//     chunk views.
//
// A Routing is immutable; Split may be called concurrently.
type Routing struct {
	cfg    Config
	gate   Gate
	tokens int // rows per device batch

	whole      *Stats    // arrival order: totals of the whole batch
	keptPrefix [][]int32 // arrival order: [d][t] slots kept by tokens < t
	prio       [][]prioToken
	scores     []*tensor.Tensor
}

// Route runs the gate projection and the per-token decision once per device
// batch (the first xs[0].Rows() rows of each device, the range RouteOnly
// splits) and keeps what Split needs.
func (l *Layer) Route(xs []*tensor.Tensor, gate Gate) *Routing {
	cfg := l.Cfg
	t := xs[0].Rows()
	r := &Routing{cfg: cfg, gate: gate, tokens: t}
	_, bpr := gate.(BatchPrioritizedGate)
	arrival := !bpr && gate.PartialBatchSafe()
	if arrival {
		r.whole = newStats(cfg)
	}
	for d := 0; d < cfg.Devices; d++ {
		block := &tensor.Tensor{Shape: []int{t, cfg.Hidden}, Data: xs[d].Data[:t*cfg.Hidden]}
		scores := tensor.MatMul(block, l.GateW)
		switch {
		case bpr:
			r.prio = append(r.prio, prioritize(scores))
		case arrival:
			routes := gate.Route(scores, 0, NewCapacityState(cfg.TotalExperts(), cfg.Capacity))
			prefix := make([]int32, t+1)
			for i := range routes {
				prefix[i+1] = prefix[i] + int32(r.whole.count(cfg, d, routes[i:i+1]))
			}
			r.keptPrefix = append(r.keptPrefix, prefix)
		default:
			r.scores = append(r.scores, scores)
		}
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
	if r.whole != nil {
		s = r.whole.clone()
	} else {
		s = newStats(cfg)
		states = make([]*CapacityState, cfg.Devices)
		for d := range states {
			states[d] = NewCapacityState(cfg.TotalExperts(), cfg.Capacity)
		}
	}
	for m := 0; m < k; m++ {
		lo, hi := chunk(r.tokens, k, m)
		if lo == hi {
			continue
		}
		microSent := make([]int, cfg.Devices)
		for d := range microSent {
			switch {
			case r.whole != nil:
				microSent[d] = int(r.keptPrefix[d][hi] - r.keptPrefix[d][lo])
			case r.prio != nil:
				toks := r.prio[d][lo:hi]
				for _, i := range priorityOrder(toks) {
					if e := int(toks[i].expert); states[d].take(e) {
						s.admit(cfg, d, e)
						microSent[d]++
					} else {
						s.Dropped++
					}
				}
			default:
				e := cfg.TotalExperts()
				view := &tensor.Tensor{Shape: []int{hi - lo, e}, Data: r.scores[d].Data[lo*e : hi*e]}
				microSent[d] = s.count(cfg, d, r.gate.Route(view, lo, states[d]))
			}
		}
		s.MicroSendTokens = append(s.MicroSendTokens, microSent)
	}
	return s
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

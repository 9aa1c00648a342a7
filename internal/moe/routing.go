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
//   - Batch Prioritized Routing re-sorts each chunk by importance, which
//     changes which tokens drop but not how many: a top-1 gate admits, per
//     chunk and expert e, min(remaining_e, n_e) of the chunk's n_e tokens
//     for e, whatever order it ranks them in. Stats holds only counts, so
//     BPR splits exactly like Switch, from its per-token kept-slot counts;
//   - expert choice admits min(remaining, chunk) tokens per expert and
//     keeps every slot, whatever the scores, so its split is closed form
//     and the routing keeps nothing but the batch size.
//
// A Routing is immutable; Split may be called concurrently.
type Routing struct {
	cfg    Config
	tokens int // rows per device batch

	whole *Stats  // arrival order: totals of the whole batch
	kept  []uint8 // arrival order: [d*tokens+i] slots token i of device d kept (at most top-k)
}

// Route runs the gate projection and the per-token decision once per device
// batch (the first xs[0].Rows() rows of each device, the range RouteOnly
// splits) and keeps what Split needs. It supports the arrival-order gates,
// Batch Prioritized Routing and expert choice, and panics on any other gate
// that is not partial-batch safe.
func (l *Layer) Route(xs []*tensor.Tensor, gate Gate) *Routing {
	return l.route(xs[0].Rows(), gate, inputBatch{xs: xs, w: l.GateW})
}

// tokenLogits is a gate input batch as route reads it, token by token.
type tokenLogits interface {
	// logits writes the gate logits of device d's token i into row.
	logits(row []float32, d, i int)
	// top1 returns tensor.SoftmaxArgmax of those logits, using row as
	// scratch.
	top1(row []float32, d, i int) int
}

// inputBatch is a materialized batch: xs[d] is device d's [T, H] input.
type inputBatch struct {
	xs []*tensor.Tensor
	w  *tensor.Tensor
}

func (b inputBatch) logits(row []float32, d, i int) { tensor.MatMulRow(row, b.xs[d].Row(i), b.w) }

func (b inputBatch) top1(row []float32, d, i int) int {
	b.logits(row, d, i)
	return tensor.SoftmaxArgmax(row)
}

// route is Route over t tokens per device read through src.
//
// The top-1 gates that rank by the gate probability (Switch and BPR) never
// read a slot weight: each token is decided by src.top1, which skips the
// exponentials when the top-1 expert is clear, and admitted in arrival
// order. Top-2 sees one reused [T, E] score block per device; Random and
// Hash never read scores, so they see a block with a shape and no data.
func (l *Layer) route(t int, gate Gate, src tokenLogits) *Routing {
	cfg := l.Cfg
	r := &Routing{cfg: cfg, tokens: t}
	e := cfg.TotalExperts()
	row := make([]float32, e)
	var scores *tensor.Tensor
	switch gate.(type) {
	case ExpertChoiceGate:
		return r
	case SwitchGate, BatchPrioritizedGate:
	case RandomGate, HashGate:
		scores = &tensor.Tensor{Shape: []int{t, e}}
	default:
		if !gate.PartialBatchSafe() {
			panic(fmt.Sprintf("moe: Route cannot replay splits of gate %q", gate.Name()))
		}
		scores = tensor.New(t, e)
	}
	r.whole = newStats(cfg)
	r.kept = make([]uint8, cfg.Devices*t)
	for d := 0; d < cfg.Devices; d++ {
		kept := r.kept[d*t : (d+1)*t]
		st := NewCapacityState(e, cfg.Capacity)
		if scores == nil {
			for i := 0; i < t; i++ {
				if ex := src.top1(row, d, i); st.take(ex) {
					r.whole.admit(cfg, d, ex)
					kept[i] = 1
				} else {
					r.whole.Dropped++
				}
			}
		} else {
			if scores.Data != nil {
				for i := 0; i < t; i++ {
					src.logits(scores.Row(i), d, i)
				}
			}
			routes := gate.Route(scores, 0, st)
			for i := range routes {
				kept[i] = uint8(r.whole.count(cfg, d, routes[i:i+1]))
			}
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
	if r.whole != nil {
		s = r.whole.clone()
	} else {
		s = newStats(cfg)
	}
	remaining := cfg.Capacity // expert choice: every expert's, on every device
	for m := 0; m < k; m++ {
		lo, hi := chunk(r.tokens, k, m)
		if lo == hi {
			continue
		}
		microSent := make([]int, cfg.Devices)
		if r.whole != nil {
			for d := range microSent {
				for _, n := range r.kept[d*r.tokens+lo : d*r.tokens+hi] {
					microSent[d] += int(n)
				}
			}
		} else {
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

package moe

import (
	"sort"

	"lancet/internal/tensor"
)

// ExpertChoiceGate implements expert-choice routing (Zhou et al., cited in
// paper Sec. 2.1): each expert selects its top-C tokens by gate score, so
// capacity is always exactly filled and no token is "dropped" by a capacity
// race — but a token may be selected by several experts or by none.
//
// Like Batch Prioritized Routing, the decision ranks tokens against the
// whole batch, so it is not partial-batch safe: Lancet may only extend
// partitioning after the MoE layer.
type ExpertChoiceGate struct{}

// Name implements Gate.
func (ExpertChoiceGate) Name() string { return "expert_choice" }

// PartialBatchSafe implements Gate.
func (ExpertChoiceGate) PartialBatchSafe() bool { return false }

// TopK implements Gate. Expert choice has no per-token k; selection volume
// is governed by capacity. One slot per (expert, selected token) is
// emitted.
func (ExpertChoiceGate) TopK() int { return 1 }

// Route implements Gate. For each expert, the top min(C, T) tokens by score
// are selected; the capacity state is consumed accordingly so dispatch
// accounting matches the other gates.
func (ExpertChoiceGate) Route(scores *tensor.Tensor, _ int, st *CapacityState) []TokenRoute {
	n, e := scores.Rows(), scores.Cols()
	routes := make([]TokenRoute, n)
	type cand struct {
		token int
		score float32
	}
	for ex := 0; ex < e; ex++ {
		cands := make([]cand, n)
		for i := 0; i < n; i++ {
			cands[i] = cand{token: i, score: scores.Row(i)[ex]}
		}
		sort.SliceStable(cands, func(a, b int) bool { return cands[a].score > cands[b].score })
		for _, c := range cands {
			if st.Remaining(ex) == 0 {
				break
			}
			st.take(ex)
			routes[c.token].Slots = append(routes[c.token].Slots, Slot{
				Expert: ex, Weight: c.score, Kept: true,
			})
		}
	}
	return routes
}

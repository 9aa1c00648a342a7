package experiments

import (
	"fmt"
	"math/rand"

	"lancet/internal/moe"
	"lancet/internal/tensor"
)

func init() {
	Register(Experiment{
		Name: "equiv", Order: 90,
		Desc: "routing equivalence of micro-batched gating with capacity passing (Sec. 2.3)",
		Run:  func(Params) (*Table, error) { return EquivalenceCheck() },
	})
	Register(Experiment{
		Name: "a2a-padding", Order: 100,
		Desc: "padded vs irregular all-to-all payload savings (Fig. 10 motivation)",
		Run:  func(Params) (*Table, error) { return PaddingSavings() },
	})
}

// EquivalenceCheck backs the mathematical-equivalence claims of Sec. 2.3
// (Challenge 1): for partial-batch-safe gates, micro-batched gating with
// capacity passing reproduces unpartitioned routing bit-exactly; for Batch
// Prioritized Routing it does not, which is why Lancet restricts its
// partition range there.
func EquivalenceCheck() (*Table, error) {
	t := &Table{
		ID:    "equiv",
		Title: "Routing equivalence under micro-batched gating with capacity passing",
		Note: "Functional MoE layer: 8 devices x 2 experts, tight capacity. 'identical' " +
			"compares dropped-token sets and layer outputs bitwise against the " +
			"unpartitioned run.",
		Header: []string{"Gate", "Partial-batch safe", "Micro-batches",
			"Dropped (whole)", "Dropped (micro)", "Outputs identical"},
	}
	cfg := moe.Config{Devices: 8, ExpertsPerDevice: 2, Capacity: 4, Hidden: 16, FFN: 32}
	layer, err := moe.NewLayer(cfg, 2024)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(5))
	xs := make([]*tensor.Tensor, cfg.Devices)
	for d := range xs {
		xs[d] = tensor.Randn(rng, 1, 48, cfg.Hidden)
	}
	gates := []moe.Gate{
		moe.SwitchGate{}, moe.Top2Gate{}, moe.RandomGate{Seed: 3},
		moe.HashGate{}, moe.BatchPrioritizedGate{}, moe.ExpertChoiceGate{},
	}
	for _, gate := range gates {
		whole, wStats := layer.Forward(xs, gate)
		for _, k := range []int{2, 4} {
			part, pStats := layer.ForwardMicroBatched(xs, gate, k)
			same := wStats.Dropped == pStats.Dropped
			if same {
				for d := range whole {
					if !whole[d].Equal(part[d]) {
						same = false
						break
					}
				}
			}
			t.AddRow(gate.Name(), fmt.Sprint(gate.PartialBatchSafe()), fmt.Sprint(k),
				fmt.Sprint(wStats.Dropped), fmt.Sprint(pStats.Dropped), fmt.Sprint(same))
		}
	}
	return t, nil
}

// PaddingSavings quantifies what the irregular all-to-all (Fig. 10) saves
// over padded dispatch buffers for each gate — the reason Lancet's total
// communication time can undercut the baselines (Sec. 7.1).
func PaddingSavings() (*Table, error) {
	t := &Table{
		ID:     "a2a-padding",
		Title:  "Irregular vs padded all-to-all payload",
		Note:   "Share of the padded E*C dispatch buffer actually occupied by routed tokens.",
		Header: []string{"Gate", "Routed tokens/device", "Padded slots/device", "Payload share"},
	}
	cfg := moe.Config{Devices: 8, ExpertsPerDevice: 2, Capacity: 8, Hidden: 16, FFN: 32}
	layer, err := moe.NewGateLayer(cfg, 77)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(6))
	xs := make([]*tensor.Tensor, cfg.Devices)
	for d := range xs {
		xs[d] = tensor.Randn(rng, 1, 96, cfg.Hidden)
	}
	for _, gate := range []moe.Gate{moe.SwitchGate{}, moe.Top2Gate{}, moe.BatchPrioritizedGate{}} {
		stats := layer.Route(xs, gate).Split(1)
		perDev := float64(stats.Routed) / float64(cfg.Devices)
		share := perDev / float64(stats.PaddedTokensPerDevice)
		t.AddRow(gate.Name(), fmt.Sprintf("%.1f", perDev),
			fmt.Sprint(stats.PaddedTokensPerDevice), fmt.Sprintf("%.2f", share))
	}
	return t, nil
}

package experiments

import (
	"fmt"

	"lancet/internal/moe"
)

func init() {
	Register(Experiment{
		Name: "skew", Order: 130,
		Desc: "routing statistics under Zipf-skewed token-to-expert affinity",
		Run:  func(Params) (*Table, error) { return LoadSkew() },
	})
}

// LoadSkew studies routing under imbalanced (Zipf-skewed) token-to-expert
// affinity: the dynamic workloads that motivate FasterMoE's shadowing and
// Tutel's adaptive parallelism (paper Sec. 8). With skew, capacity overflow
// drops tokens, the hottest device concentrates traffic, and the irregular
// all-to-all payload falls further below the padded buffer.
func LoadSkew() (*Table, error) {
	t := &Table{
		ID:    "skew",
		Title: "Routing under Zipf-skewed expert affinity (Switch gate)",
		Note: "8 devices x 2 experts, capacity factor 1.25 equivalent. Drop rate and " +
			"hot-device share grow with skew; the irregular all-to-all transmits " +
			"only the routed share of the padded buffer.",
		Header: []string{"Skew", "Dropped (%)", "Hot-device traffic share", "Irregular payload share"},
	}
	cfg := moe.Config{Devices: 8, ExpertsPerDevice: 2, Capacity: 8, Hidden: 16, FFN: 32}
	layer, err := moe.NewGateLayer(cfg, 31)
	if err != nil {
		return nil, err
	}
	tokens := 96
	for _, skew := range []float64{0, 0.5, 1.0, 1.5, 2.0} {
		xs := moe.SkewedInputs(layer, tokens, skew, 11)
		stats := layer.Route(xs, moe.SwitchGate{}).Split(1)
		slots := cfg.Devices * tokens
		dropped := float64(stats.Dropped) / float64(slots) * 100

		recv := make([]int, cfg.Devices)
		total := 0
		for src := range stats.SendTokens {
			for dst, c := range stats.SendTokens[src] {
				recv[dst] += c
				total += c
			}
		}
		hot := 0
		for _, c := range recv {
			if c > hot {
				hot = c
			}
		}
		share := float64(stats.Routed) / float64(cfg.Devices) / float64(stats.PaddedTokensPerDevice)
		t.AddRow(fmt.Sprintf("%.1f", skew),
			fmt.Sprintf("%.1f", dropped),
			fmt.Sprintf("%.2f", float64(hot)/float64(total)),
			fmt.Sprintf("%.2f", share))
	}
	return t, nil
}

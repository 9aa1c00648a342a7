package partition

import (
	"testing"

	"lancet/internal/cost"
	"lancet/internal/hw"
	"lancet/internal/model"
)

func benchFixture(b *testing.B) (*model.Built, *cost.Model) {
	b.Helper()
	cfg := model.GPT2SMoE()
	cfg.BatchPerGPU = 16
	cl := hw.V100Cluster(2)
	built, err := model.Build(cfg, cl)
	if err != nil {
		b.Fatal(err)
	}
	return built, cost.NewModel(cl)
}

// BenchmarkPartitionPass measures the DP + axis inference + rewrite.
func BenchmarkPartitionPass(b *testing.B) {
	built, cm := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(built.Graph, cm, Options{GatePartialBatch: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAxisInference isolates the constraint solver on the full MoE
// window, as the DP sweep runs it: on a scratch whose binding table is
// warm.
func BenchmarkAxisInference(b *testing.B) {
	built, _ := benchFixture(b)
	h := built.MoE[0]
	window := built.Graph.Instrs[h.Gate : h.Gather+1]
	sc := getScratch()
	defer putScratch(sc)
	sc.beginAxes(built.Graph, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sc.solveAxes(built.Graph, window) {
			b.Fatal("window must be solvable")
		}
	}
}

// BenchmarkPipelineCost isolates one P(i,n,k) evaluation (the DP's inner
// loop, counted in Fig. 15).
func BenchmarkPipelineCost(b *testing.B) {
	built, cm := benchFixture(b)
	h := built.MoE[0]
	window := built.Graph.Instrs[h.Gate : h.Gather+1]
	asg := InferAxes(built.Graph, window, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipelineCost(built.Graph, cm, window, asg, 4, nil, 1)
	}
}

// BenchmarkDPvsFixedRanges is the design-choice ablation of Sec. 5.1: the
// DP's predicted forward time versus the two fixed policies it subsumes
// (no partitioning, and Tutel's a2a+experts-only partitioning).
func BenchmarkDPvsFixedRanges(b *testing.B) {
	built, cm := benchFixture(b)
	b.Run("DP", func(b *testing.B) {
		var fwd float64
		for i := 0; i < b.N; i++ {
			res, err := Run(built.Graph, cm, Options{GatePartialBatch: true})
			if err != nil {
				b.Fatal(err)
			}
			fwd = res.ForwardUs
		}
		b.ReportMetric(fwd/1000, "fwd_ms")
	})
	b.Run("NoPartition", func(b *testing.B) {
		var fwd float64
		for i := 0; i < b.N; i++ {
			fwd = 0
			for _, in := range built.Graph.Instrs {
				if in.Phase != 0 {
					break
				}
				fwd += cm.PredictInstr(in)
			}
		}
		b.ReportMetric(fwd/1000, "fwd_ms")
	})
}

// BenchmarkPartitionDP measures the DP inner loop for one candidate window
// — the per-window index build, the k-independent boundary cost, and a full
// k sweep of pipeline-span simulations on the pooled scratch. This is the
// work Run repeats for every (i, j) window pair; steady state must be
// 0 allocs/op (ratcheted exactly by perf_floor.txt).
func BenchmarkPartitionDP(b *testing.B) {
	built, cm := benchFixture(b)
	h := built.MoE[0]
	window := built.Graph.Instrs[h.Gate : h.Gather+1]
	sc := getScratch()
	defer putScratch(sc)
	sc.beginDurMemo(len(built.Graph.Instrs), 8)
	sc.beginAxes(built.Graph, true)
	if !sc.solveAxes(built.Graph, window) {
		b.Fatal("window must be solvable")
	}
	built.Graph.Preds(window[0].ID) // build the adjacency index up front
	sink := 0.0
	// Warm the memoized instruction profiles and the scratch arenas.
	sc.prepareWindow(built.Graph, window)
	for k := 2; k <= 8; k++ {
		sink += sc.pipelineSpan(cm, window, k, nil, 1)
	}
	sink += boundaryCostUs(built.Graph, cm, window, sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boundary := boundaryCostUs(built.Graph, cm, window, sc)
		sc.prepareWindow(built.Graph, window)
		for k := 2; k <= 8; k++ {
			sink += sc.pipelineSpan(cm, window, k, nil, 1) + boundary
		}
	}
	_ = sink
}

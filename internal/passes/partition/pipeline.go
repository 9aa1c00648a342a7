package partition

import (
	"lancet/internal/cost"
	"lancet/internal/ir"
	"lancet/internal/netsim"
)

// predictInstr prices one instruction under the active routing profile:
// all-to-alls under a profile go to the link-level model's exact skewed
// replay, everything else — and every op under uniform routing — keeps the
// closed-form prediction path.
//
//lancet:hotpath
func predictInstr(cm *cost.Model, in *ir.Instr, prof *netsim.RoutingProfile, frac float64) float64 {
	if prof != nil && in.Op == ir.OpAllToAll {
		return a2aProfiledUs(cm, in, 1, prof, frac)
	}
	return cm.PredictInstr(in)
}

// a2aProfiledUs prices one micro all-to-all (1/k of the instruction's
// payload) under the routing profile, mirroring the simulator's replay
// bounds: the link-level price of the actually-routed share of the
// payload, capped at the padded closed form (capacity caps every
// (source, expert) pair, so an irregular exchange can never exceed the
// padded one on any link).
//
//lancet:hotpath
func a2aProfiledUs(cm *cost.Model, in *ir.Instr, k int, prof *netsim.RoutingProfile, frac float64) float64 {
	routed := int64(float64(in.Bytes/int64(k)) * frac)
	t := cm.AllToAllSkewedUs(routed, prof)
	if padded := cm.PredictA2APartitioned(in.Bytes, in.CommDevices, k); t > padded {
		t = padded
	}
	return t
}

// stageStarts returns, in buf's storage, the first window position of
// every pipeline stage followed by len(window): stage s covers positions
// [st[s], st[s+1]). A stage is a maximal run of instructions that execute
// consecutively on the same stream (all computation or all communication),
// per Sec. 5.3.
//
//lancet:hotpath
func stageStarts(window []*ir.Instr, buf []int) []int {
	buf = buf[:0]
	for i, in := range window {
		if i == 0 || in.IsComm() != window[i-1].IsComm() {
			buf = append(buf, i)
		}
	}
	buf = append(buf, len(window))
	return buf
}

// instanceRef identifies one micro-partition instance of a window op.
type instanceRef struct {
	pos  int // index into the window
	part int
}

// schedulePlan returns the pipeline issue order of Fig. 9: stages in order;
// within a stage, partitions in index order; within a stage-partition pair,
// original program order. The rewrite emits micro-instances in this order,
// and dpScratch.pipelineSpan walks the same stage ranges when it prices a
// candidate.
func schedulePlan(window []*ir.Instr, k int) []instanceRef {
	st := stageStarts(window, nil)
	plan := make([]instanceRef, 0, len(window)*k)
	for s := 0; s+1 < len(st); s++ {
		for p := 0; p < k; p++ {
			for pos := st[s]; pos < st[s+1]; pos++ {
				plan = append(plan, instanceRef{pos, p})
			}
		}
	}
	return plan
}

// instanceDur prices one micro-partition of an op. All-to-alls use the
// paper's static-shape approximation (query the profiled table at C/n —
// or, under a routing profile, the exact skewed replay at C/n with the
// same traffic shape); compute ops are re-profiled at 1/k of their work,
// which captures kernel launch overhead and SM under-utilization of small
// kernels. tmp is caller-owned scratch for the micro-partition
// instruction, so the hot loop allocates no copies; the cost model only
// reads its scalar fields.
//
//lancet:hotpath
func instanceDur(cm *cost.Model, in *ir.Instr, k int, prof *netsim.RoutingProfile, frac float64, tmp *ir.Instr) float64 {
	if in.Op == ir.OpAllToAll {
		if prof != nil {
			return a2aProfiledUs(cm, in, k, prof, frac)
		}
		return cm.PredictA2APartitioned(in.Bytes, in.CommDevices, k)
	}
	*tmp = *in
	tmp.FLOPs /= float64(k)
	tmp.Bytes /= int64(k)
	tmp.NumParts = k
	return cm.PredictInstr(tmp)
}

// boundaryCostUs prices the Partition/Reconstruct plumbing at the pipeline
// edges. Batch- and capacity-axis splits are views into contiguous buffers
// (free); irregular splits and reconstructions physically regroup tokens
// and pay memory traffic. The axes are the scratch's current assignment
// (solveAxes or setAssignment). The cost is k-independent, so Run computes
// it once per window and adds it to every candidate's span; membership
// tests run on the scratch's generation-stamped ID arrays, and tensors are
// visited in program order.
//
//lancet:hotpath
func boundaryCostUs(g *ir.Graph, cm *cost.Model, window []*ir.Instr, sc *dpScratch) float64 {
	sc.insideI = grow(sc.insideI, len(g.Instrs))
	sc.prodT = grow(sc.prodT, len(g.Tensors))
	sc.seenT = grow(sc.seenT, len(g.Tensors))
	sc.markGen++
	gen := sc.markGen
	for _, in := range window {
		sc.insideI[in.ID] = gen
		for _, t := range in.Outs {
			sc.prodT[t] = gen
		}
	}
	total := 0.0
	copyCost := func(t int) float64 {
		sc.tmp = ir.Instr{Op: ir.OpReconstruct, Bytes: 2 * g.Tensor(t).Bytes()}
		return cm.PredictInstr(&sc.tmp)
	}
	for _, in := range window {
		for _, t := range in.Ins {
			if sc.prodT[t] == gen || sc.seenT[t] == gen {
				continue
			}
			sc.seenT[t] = gen
			if sc.axis(t) == AxisIrr {
				total += copyCost(t) // irregular boundary split
			}
		}
	}
	for _, in := range window {
		for _, t := range in.Outs {
			if sc.axis(t) != AxisIrr {
				continue
			}
			for _, c := range g.Consumers(t) {
				if sc.insideI[c] != gen {
					total += copyCost(t) // irregular boundary reconstruct
					break
				}
			}
		}
	}
	return total
}

// pipelineCost simulates the stage pipeline and returns P(i, n, k): the
// end-to-end time of the partitioned window (Sec. 5.3). Each instance's
// start time is the maximum of (i) the end of the instances it depends on
// and (ii) the end of the previous instance on its stream. This is the
// standalone form for external callers and tests; Run drives the
// decomposed pieces (prepareWindow / pipelineSpan / hoisted boundary cost)
// directly on its own scratch.
func pipelineCost(g *ir.Graph, cm *cost.Model, window []*ir.Instr, asg Assignment, k int, prof *netsim.RoutingProfile, frac float64) float64 {
	sc := getScratch()
	defer putScratch(sc)
	sc.beginDurMemo(len(g.Instrs), k)
	sc.setAssignment(g, asg)
	sc.prepareWindow(g, window)
	span := sc.pipelineSpan(cm, window, k, prof, frac)
	return span + boundaryCostUs(g, cm, window, sc)
}

// serialCost is the unpartitioned execution time of the window: the plain
// sum of operator times (the forward pass is a dependency chain), priced
// under the active routing profile.
func serialCost(cm *cost.Model, window []*ir.Instr, prof *netsim.RoutingProfile, frac float64) float64 {
	total := 0.0
	for _, in := range window {
		total += predictInstr(cm, in, prof, frac)
	}
	return total
}

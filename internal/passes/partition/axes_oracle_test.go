package partition

import (
	"testing"

	"lancet/internal/cost"
	"lancet/internal/hw"
	"lancet/internal/ir"
	"lancet/internal/model"
	"lancet/internal/passes/dwsched"
)

// This file keeps the original map-backed axis solver as a slow oracle for
// the scratch solver: every operator's combos are rebuilt per visit, the
// assignment is a map and backtracking deletes entries. It shares no code
// with solveAxes.

// oracleInferAxes solves the axis CSP of Sec. 5.2 for window, or returns
// nil when the window is not partitionable.
func oracleInferAxes(g *ir.Graph, window []*ir.Instr, gatePartial bool) Assignment {
	asg := make(Assignment)
	for _, in := range window {
		for _, t := range in.Ins {
			if g.Tensor(t).Kind == ir.Weight {
				asg[t] = AxisNP
			}
		}
	}
	if !oracleSolve(g, window, 0, asg, gatePartial) {
		return nil
	}
	return asg
}

func oracleSolve(g *ir.Graph, window []*ir.Instr, idx int, asg Assignment, gatePartial bool) bool {
	if idx == len(window) {
		return true
	}
	for _, combo := range oracleCombos(g, window[idx], gatePartial) {
		var touched []int
		ok := true
		for _, bind := range combo {
			if cur, exists := asg[bind.tensor]; exists {
				if cur != bind.axis {
					ok = false
					break
				}
				continue
			}
			asg[bind.tensor] = bind.axis
			touched = append(touched, bind.tensor)
		}
		if ok && oracleSolve(g, window, idx+1, asg, gatePartial) {
			return true
		}
		for _, t := range touched {
			delete(asg, t)
		}
	}
	return false
}

func oracleCombos(g *ir.Graph, in *ir.Instr, gatePartial bool) [][]binding {
	var nonWeightIns []int
	for _, t := range in.Ins {
		if g.Tensor(t).Kind != ir.Weight {
			nonWeightIns = append(nonWeightIns, t)
		}
	}
	combo := func(inAx, outAx Axis) []binding {
		var c []binding
		for _, t := range nonWeightIns {
			c = append(c, binding{t, inAx})
		}
		for _, t := range in.Outs {
			c = append(c, binding{t, outAx})
		}
		return c
	}
	switch in.Op {
	case ir.OpLayerNorm, ir.OpGeLU, ir.OpAdd, ir.OpSoftmax, ir.OpMatMul,
		ir.OpAttnScores, ir.OpAttnContext, ir.OpEmbedding:
		return [][]binding{combo(AxisBatch, AxisBatch)}
	case ir.OpGate:
		if !gatePartial {
			return nil
		}
		return [][]binding{combo(AxisBatch, AxisIrr)}
	case ir.OpAllToAll, ir.OpExpertFFN:
		var combos [][]binding
		for _, ax := range []Axis{AxisCap, AxisIrr} {
			outAx := ax
			if in.Op == ir.OpExpertFFN && in.Grad == ir.GradDW {
				outAx = AxisPartial
			}
			combos = append(combos, combo(ax, outAx))
		}
		return combos
	case ir.OpMoEGather:
		return [][]binding{combo(AxisIrr, AxisBatch)}
	}
	return nil
}

func oracleMaxParts(g *ir.Graph, asg Assignment) int {
	limit := int(^uint(0) >> 1)
	for t, ax := range asg {
		shape := g.Tensor(t).Shape
		var dim int
		switch ax {
		case AxisNP, AxisPartial:
			continue
		case AxisBatch:
			dim = shape[0]
		case AxisCap, AxisIrr:
			if len(shape) >= 2 {
				dim = shape[1]
			} else {
				dim = shape[0]
			}
		}
		if dim < limit {
			limit = dim
		}
	}
	return limit
}

// oracleBoundaryCostUs prices the window's irregular split and reconstruct
// plumbing from map-based membership sets, finding outside consumers by
// scanning the whole program. Terms are summed in the same order as
// boundaryCostUs, so the two agree exactly.
func oracleBoundaryCostUs(g *ir.Graph, cm *cost.Model, window []*ir.Instr, asg Assignment) float64 {
	inside := make(map[int]bool)
	produced := make(map[int]bool)
	for _, in := range window {
		inside[in.ID] = true
		for _, t := range in.Outs {
			produced[t] = true
		}
	}
	copyCost := func(t int) float64 {
		return cm.PredictInstr(&ir.Instr{Op: ir.OpReconstruct, Bytes: 2 * g.Tensor(t).Bytes()})
	}
	total := 0.0
	seen := make(map[int]bool)
	for _, in := range window {
		for _, t := range in.Ins {
			if produced[t] || seen[t] {
				continue
			}
			seen[t] = true
			if asg[t] == AxisIrr {
				total += copyCost(t)
			}
		}
	}
	for _, in := range window {
		for _, t := range in.Outs {
			if asg[t] != AxisIrr {
				continue
			}
		scan:
			for _, c := range g.Instrs {
				for _, x := range c.Ins {
					if x == t && !inside[c.ID] {
						total += copyCost(t)
						break scan
					}
				}
			}
		}
	}
	return total
}

// oracleWindows returns the windows [i, j) the differential test covers on
// a graph whose forward prefix is fwdEnd instructions long: every window
// the DP sweeps — the group-bounded windows of Run under the planner's
// auto-sized gamma (five groups per MoE layer, iota 7, as lancet.Session
// uses) and under the pass defaults (2000 us, iota 12) — plus every
// instruction window of up to short instructions.
func oracleWindows(g *ir.Graph, cm *cost.Model, fwdEnd, moeLayers, short int) [][2]int {
	seen := make(map[[2]int]bool)
	var out [][2]int
	add := func(i, j int) {
		if w := [2]int{i, j}; !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	prefix := make([]float64, fwdEnd+1)
	for i := 0; i < fwdEnd; i++ {
		prefix[i+1] = prefix[i] + cm.PredictInstr(g.Instr(i))
	}
	for _, o := range []struct {
		groupUs float64
		iota    int
	}{{prefix[fwdEnd] / float64(5*moeLayers), 7}, {2000, 12}} {
		bounds := makeGroups(prefix, o.groupUs, nil)
		for j := 1; j < len(bounds); j++ {
			for i := max(0, j-o.iota); i < j; i++ {
				add(bounds[i], bounds[j])
			}
		}
	}
	for i := 0; i < fwdEnd; i++ {
		for j := i + 1; j <= fwdEnd && j-i <= short; j++ {
			add(i, j)
		}
	}
	return out
}

// TestAxisSolverMatchesOracle checks the scratch solver against the oracle
// on every DP window (see oracleWindows) of the dW-scheduled training
// graphs of all three benchmark models, under both gate capabilities: same
// solvability, same assignment, same partition bound and the same boundary
// cost to the bit. The solver's binding table is shared by all windows of
// one graph, as in Run.
func TestAxisSolverMatchesOracle(t *testing.T) {
	cl := hw.V100Cluster(2)
	cm := cost.NewModel(cl)
	for _, cfg := range []model.Config{model.GPT2SMoE(), model.GPT2LMoE(), model.ViTSMoE()} {
		cfg.BatchPerGPU = 8
		b, err := model.Build(cfg, cl)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dwsched.Run(b.Graph, cm, dwsched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g := res.Graph
		fwdEnd := len(g.Instrs)
		for i, in := range g.Instrs {
			if in.Phase != ir.Forward {
				fwdEnd = i
				break
			}
		}
		windows := oracleWindows(g, cm, fwdEnd, cfg.NumMoELayers(), 24)
		for _, gatePartial := range []bool{true, false} {
			sc := getScratch()
			sc.beginAxes(g, gatePartial)
			solvable := 0
			for _, w := range windows {
				i, j := w[0], w[1]
				window := g.Instrs[i:j]
				want := oracleInferAxes(g, window, gatePartial)
				got := sc.solveAxes(g, window)
				if got != (want != nil) {
					t.Fatalf("%s gate=%v [%d,%d): solver says %v, oracle %v", cfg.Name, gatePartial, i, j, got, want != nil)
				}
				if !got {
					continue
				}
				solvable++
				asg := sc.assignment()
				if len(asg) != len(want) {
					t.Fatalf("%s gate=%v [%d,%d): %d tensors assigned, oracle %d", cfg.Name, gatePartial, i, j, len(asg), len(want))
				}
				for tid, ax := range want {
					if a, ok := asg[tid]; !ok || a != ax {
						t.Fatalf("%s gate=%v [%d,%d): tensor %%%d axis %v, oracle %v", cfg.Name, gatePartial, i, j, tid, a, ax)
					}
				}
				if m, w := sc.maxParts(g), oracleMaxParts(g, want); m != w {
					t.Fatalf("%s gate=%v [%d,%d): maxParts %d, oracle %d", cfg.Name, gatePartial, i, j, m, w)
				}
				if c, w := boundaryCostUs(g, cm, window, sc), oracleBoundaryCostUs(g, cm, window, want); c != w {
					t.Fatalf("%s gate=%v [%d,%d): boundary cost %v, oracle %v", cfg.Name, gatePartial, i, j, c, w)
				}
			}
			putScratch(sc)
			t.Logf("%s gate=%v: %d windows (forward prefix %d instrs), %d solvable", cfg.Name, gatePartial, len(windows), fwdEnd, solvable)
			if solvable == 0 {
				t.Fatalf("%s gate=%v: no solvable window; the comparison is vacuous", cfg.Name, gatePartial)
			}
		}
	}
}

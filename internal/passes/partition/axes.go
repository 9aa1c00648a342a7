// Package partition implements Lancet's operator partition pass (paper
// Sec. 5): dynamic-programming selection of the optimal partition range
// around each all-to-all (Sec. 5.1), partition-axis inference by constraint
// satisfaction including the special irregular axis Airr (Sec. 5.2), the
// stage-based pipeline scheduler that prices a candidate partition
// (Sec. 5.3), and the IR rewrite that materializes the chosen pipelines.
package partition

import (
	"lancet/internal/ir"
)

// Axis is a tensor partition axis. The numeric batch/capacity axes follow
// the paper's convention (activations are [B,S,H], dispatch buffers are
// [E,C,H]); AxisIrr is the special irregular partition of MoE tensors
// (paper Fig. 5c / Sec. 5.2).
type Axis int

const (
	// AxisNP marks tensors that are not partitioned (weights, and tensors
	// outside any pipeline).
	AxisNP Axis = iota
	// AxisBatch splits activations along the batch dimension (axis 0).
	AxisBatch
	// AxisCap splits dispatch buffers along the capacity dimension
	// (axis 1 of [E,C,H]) — the Tutel-style partition, valid only while
	// the range covers nothing but all-to-alls and experts.
	AxisCap
	// AxisIrr is the irregular partition: tokens grouped by originating
	// micro-batch, with capacity passed between partitions.
	AxisIrr
	// AxisPartial marks partial-sum outputs (expert weight gradients
	// computed per token chunk): every piece has the full shape and the
	// reconstruction accumulates in place (free), which is how chunked
	// GEMMs accumulate with beta=1.
	AxisPartial
)

func (a Axis) String() string {
	switch a {
	case AxisNP:
		return "NP"
	case AxisBatch:
		return "batch"
	case AxisCap:
		return "capacity"
	case AxisIrr:
		return "Airr"
	case AxisPartial:
		return "partial"
	}
	return "axis(?)"
}

// Assignment maps tensor IDs to their inferred partition axes.
type Assignment map[int]Axis

// The partition-axis inference of Sec. 5.2 is a constraint satisfaction
// problem: find a partition axis for every non-weight tensor a window
// touches such that each operator's partition constraint F_Z holds and
// tensors keep a single axis throughout. The DP poses it for every one of
// its O(groups × ι) overlapping windows, so it is solved on the pooled
// dpScratch without allocating (DESIGN.md §13):
//   - each instruction's F_Z is flattened into a binding table once per
//     table generation (one Run, or one InferAxes call) — it depends only on
//     the instruction and GatePartialBatch;
//   - the assignment lives in a generation-stamped per-tensor axis array,
//     and backtracking undoes bindings from a trail instead of deleting map
//     entries;
//   - an Assignment map is materialized only for the windows a caller keeps
//     (the ranges the DP backtracks to, InferAxes, Replay).
//
// Domain ordering encodes the paper's preference: capacity-axis partitions
// are tried before Airr, so windows covering only all-to-alls and experts
// get the simple Tutel-style partition, while anything extending past the
// gather (or through the gate) is forced onto Airr by the constraints.

// binding is one tensor's axis under an operator constraint.
type binding struct {
	tensor int
	axis   Axis
}

// span is the half-open index range [lo, hi).
type span struct{ lo, hi int }

// beginAxes opens a fresh binding-table generation for g under the given
// gate capability and sizes the per-tensor axis arrays.
//
//lancet:hotpath
func (sc *dpScratch) beginAxes(g *ir.Graph, gatePartial bool) {
	sc.gatePartial = gatePartial
	sc.tableGen++
	sc.binds = sc.binds[:0]
	sc.comboSpans = sc.comboSpans[:0]
	sc.combosOf = grow(sc.combosOf, len(g.Instrs))
	sc.combosGen = grow(sc.combosGen, len(g.Instrs))
	sc.axOf = grow(sc.axOf, len(g.Tensors))
	sc.axGen = grow(sc.axGen, len(g.Tensors))
}

// combos returns the valid axis assignments F_Z of in, in preference order,
// as ranges of sc.binds; an operator that cannot be partitioned has none.
// They are built on an instruction's first visit in the table generation.
//
//lancet:hotpath
func (sc *dpScratch) combos(g *ir.Graph, in *ir.Instr) []span {
	if sc.combosGen[in.ID] != sc.tableGen {
		first := len(sc.comboSpans)
		sc.appendCombos(g, in)
		sc.combosOf[in.ID] = span{first, len(sc.comboSpans)}
		sc.combosGen[in.ID] = sc.tableGen
	}
	c := sc.combosOf[in.ID]
	return sc.comboSpans[c.lo:c.hi]
}

// appendCombos appends the operator constraint F_Z of one instruction to
// the binding table: each combo binds every non-weight input to inAx and
// every output to outAx.
//
//lancet:hotpath
func (sc *dpScratch) appendCombos(g *ir.Graph, in *ir.Instr) {
	combo := func(inAx, outAx Axis) {
		lo := len(sc.binds)
		for _, t := range in.Ins {
			if g.Tensor(t).Kind != ir.Weight {
				sc.binds = append(sc.binds, binding{t, inAx})
			}
		}
		for _, t := range in.Outs {
			sc.binds = append(sc.binds, binding{t, outAx})
		}
		sc.comboSpans = append(sc.comboSpans, span{lo, len(sc.binds)})
	}
	switch in.Op {
	case ir.OpLayerNorm, ir.OpGeLU, ir.OpAdd, ir.OpSoftmax, ir.OpMatMul,
		ir.OpAttnScores, ir.OpAttnContext, ir.OpEmbedding:
		// Row/batch-parallel operators: all activation inputs and outputs
		// split along the batch dimension; weights stay whole.
		combo(AxisBatch, AxisBatch)

	case ir.OpGate:
		// The gate consumes a batch slice and emits an irregularly
		// partitioned dispatch buffer plus routing metadata — but only if
		// the routing decision is computable from partial batches
		// (Sec. 2.3 Challenge 2; Batch Prioritized Routing is not).
		if sc.gatePartial {
			combo(AxisBatch, AxisIrr)
		}

	case ir.OpAllToAll, ir.OpExpertFFN:
		// Capacity-dim partition while the range covers only a2a+experts;
		// irregular otherwise. Both propagate input axis to output —
		// except expert weight gradients, which become partial sums
		// accumulated across chunks.
		for _, ax := range [...]Axis{AxisCap, AxisIrr} {
			outAx := ax
			if in.Op == ir.OpExpertFFN && in.Grad == ir.GradDW {
				outAx = AxisPartial
			}
			combo(ax, outAx)
		}

	case ir.OpMoEGather:
		// The gather only accepts irregularly partitioned inputs (a
		// capacity split would scatter each partition's tokens across the
		// whole output, Fig. 5a) and restores the batch partition.
		combo(AxisIrr, AxisBatch)
	}
	// Any other operator (communication collectives other than a2a, loss,
	// optimizer...) cannot be partitioned.
}

// solveAxes solves the window's axis inference on the scratch, leaving the
// assignment in sc.axOf (read through axis, maxParts and assignment). It
// reports false when the window is not partitionable (e.g. it contains a
// gate that cannot route partial batches). beginAxes must have been called
// for the window's graph.
//
//lancet:hotpath
func (sc *dpScratch) solveAxes(g *ir.Graph, window []*ir.Instr) bool {
	sc.axStamp++
	sc.trail = sc.trail[:0]
	// Weights are never partitioned; pre-assign them.
	for _, in := range window {
		for _, t := range in.Ins {
			if g.Tensor(t).Kind == ir.Weight && sc.axGen[t] != sc.axStamp {
				sc.bind(t, AxisNP)
			}
		}
	}
	return sc.solveFrom(g, window, 0)
}

// solveFrom assigns axes instruction by instruction from window[idx] with
// backtracking; a failed combo's bindings are popped off the trail.
//
//lancet:hotpath
func (sc *dpScratch) solveFrom(g *ir.Graph, window []*ir.Instr, idx int) bool {
	if idx == len(window) {
		return true
	}
	for _, c := range sc.combos(g, window[idx]) {
		mark := len(sc.trail)
		ok := true
		for _, b := range sc.binds[c.lo:c.hi] {
			if sc.axGen[b.tensor] == sc.axStamp {
				if sc.axOf[b.tensor] != b.axis {
					ok = false
					break
				}
				continue
			}
			sc.bind(b.tensor, b.axis)
		}
		if ok && sc.solveFrom(g, window, idx+1) {
			return true
		}
		for _, t := range sc.trail[mark:] {
			sc.axGen[t] = 0
		}
		sc.trail = sc.trail[:mark]
	}
	return false
}

//lancet:hotpath
func (sc *dpScratch) bind(t int, ax Axis) {
	sc.axOf[t] = ax
	sc.axGen[t] = sc.axStamp
	sc.trail = append(sc.trail, t)
}

// axis returns tensor t's axis in the current assignment (AxisNP for
// tensors it does not cover).
//
//lancet:hotpath
func (sc *dpScratch) axis(t int) Axis {
	if sc.axGen[t] == sc.axStamp {
		return sc.axOf[t]
	}
	return AxisNP
}

// maxParts returns the largest partition count the current assignment
// supports: no tensor can be split into more parts than its partition
// dimension holds.
//
//lancet:hotpath
func (sc *dpScratch) maxParts(g *ir.Graph) int {
	limit := int(^uint(0) >> 1)
	for _, t := range sc.trail {
		shape := g.Tensor(t).Shape
		var dim int
		switch sc.axOf[t] {
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

// assignment materializes the current assignment as a map.
func (sc *dpScratch) assignment() Assignment {
	asg := make(Assignment, len(sc.trail))
	for _, t := range sc.trail {
		asg[t] = sc.axOf[t]
	}
	return asg
}

// setAssignment loads an externally held assignment into the scratch's
// axis arrays, as if solveAxes had produced it.
func (sc *dpScratch) setAssignment(g *ir.Graph, asg Assignment) {
	sc.axOf = grow(sc.axOf, len(g.Tensors))
	sc.axGen = grow(sc.axGen, len(g.Tensors))
	sc.axStamp++
	sc.trail = sc.trail[:0]
	for t, ax := range asg {
		sc.bind(t, ax)
	}
}

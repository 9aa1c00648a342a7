package partition

import (
	"fmt"
	"strconv"
	"strings"

	"lancet/internal/cost"
	"lancet/internal/ir"
)

// applyRanges rewrites g, replacing each chosen range with its pipeline:
// Partition ops split the window's external inputs, k micro-instances of
// every window op execute in the stage-interleaved order of Fig. 9, and
// Reconstruct ops restore tensors the rest of the graph consumes
// (Fig. 8b). The rewritten graph's program order is the execution schedule.
// Its tensors, shapes, instructions and operand lists come out of the new
// graph's slab and the derived names out of one buffer; window membership
// and per-range piece lookups run on sc's ID-indexed arrays.
func applyRanges(g *ir.Graph, ranges []Range, sc *dpScratch) (*ir.Graph, error) {
	sc.rangeOf = grow(sc.rangeOf, len(g.Instrs))
	for i := range sc.rangeOf {
		sc.rangeOf[i] = -1
	}
	// Size the slab for the pipelines too: a window op becomes k
	// micro-instances (its splits and reconstructs roughly replace the
	// dropped original), each window op and external input about k pieces
	// of about three dimensions.
	instrs, pieces, operands := len(g.Instrs), 0, 0
	for _, in := range g.Instrs {
		operands += len(in.Ins) + len(in.Outs)
	}
	for i := range ranges {
		r := &ranges[i]
		if r.End < r.Start {
			return nil, fmt.Errorf("range %d inverted: [%d,%d]", i, r.Start, r.End)
		}
		if r.K < 1 {
			return nil, fmt.Errorf("range %d has partition count %d", i, r.K)
		}
		if r.Start < 0 || r.End >= len(g.Instrs) {
			return nil, fmt.Errorf("range %d [%d,%d] outside the graph's %d instructions", i, r.Start, r.End, len(g.Instrs))
		}
		for id := r.Start; id <= r.End; id++ {
			if sc.rangeOf[id] >= 0 {
				return nil, fmt.Errorf("overlapping partition ranges at @%d", id)
			}
			sc.rangeOf[id] = i
			in := g.Instr(id)
			operands += (r.K - 1) * (len(in.Ins) + len(in.Outs))
		}
		instrs += (r.K - 1) * (r.End - r.Start + 1)
		pieces += r.K * (r.End - r.Start + 3)
	}
	ng := ir.CopyTensors(g, instrs, pieces, operands+3*pieces)
	sc.partOf = grow(sc.partOf, len(g.Tensors))
	sc.partGen = grow(sc.partGen, len(g.Tensors))
	sc.seenT = grow(sc.seenT, len(g.Tensors))
	var nm names

	for id := range g.Instrs {
		i := sc.rangeOf[id]
		if i < 0 {
			ng.Emit(ng.CloneInstr(g.Instr(id)))
			continue
		}
		if id == ranges[i].Start {
			if err := emitPipeline(ng, g, &ranges[i], i, sc, &nm); err != nil {
				return nil, err
			}
		}
	}
	if err := ng.Validate(); err != nil {
		return nil, fmt.Errorf("rewritten graph invalid: %w", err)
	}
	return ng, nil
}

func emitPipeline(ng, g *ir.Graph, r *Range, groupID int, sc *dpScratch, nm *names) error {
	window := g.Instrs[r.Start : r.End+1]
	k := r.K
	inside := func(id int) bool { return id >= r.Start && id <= r.End }
	sc.markGen++
	gen := sc.markGen

	// ensureParts returns the ID of tensor t's first piece (piece p is
	// first+p), creating the k pieces on first use in this range; ok is
	// false when the assignment gives t no axis.
	ensureParts := func(t int) (first int, ok bool) {
		if sc.partGen[t] == gen {
			return sc.partOf[t], true
		}
		axis, ok := r.Axes[t]
		if !ok {
			return 0, false
		}
		orig := g.Tensor(t)
		first = len(ng.Tensors)
		for p := 0; p < k; p++ {
			sc.shape = scaledShape(sc.shape, orig.Shape, axis, k, p)
			ng.NewTensor(nm.join(orig.Name, ".p", p), sc.shape, orig.DType, orig.Kind)
		}
		sc.partOf[t], sc.partGen[t] = first, gen
		return first, true
	}

	// Partition ops for external inputs (weights pass through whole).
	for _, in := range window {
		for _, t := range in.Ins {
			if inside(g.Producer(t)) || sc.seenT[t] == gen {
				continue
			}
			sc.seenT[t] = gen
			axis := r.Axes[t]
			if axis == AxisNP {
				continue
			}
			first, _ := ensureParts(t)
			var bytes int64
			if axis == AxisIrr {
				bytes = 2 * g.Tensor(t).Bytes()
			}
			c := ng.NewInstr(1, k)
			ins, outs := c.Ins, c.Outs
			ins[0] = t
			for p := range outs {
				outs[p] = first + p
			}
			*c = ir.Instr{
				Name: nm.join(g.Tensor(t).Name, ".split", -1), Op: ir.OpPartitionSplit,
				Phase: ir.Forward, Layer: in.Layer,
				Ins: ins, Outs: outs, Bytes: bytes,
				Group: groupID, NumParts: k, SrcID: -1, PartAxis: int(axis),
			}
			ng.Emit(c)
		}
	}

	// Micro-instances in pipeline schedule order.
	for _, ref := range schedulePlan(window, k) {
		in := window[ref.pos]
		c := ng.CloneInstr(in)
		c.FLOPs /= float64(k)
		c.Bytes /= int64(k)
		c.Group = groupID
		c.PartIdx = ref.part
		c.NumParts = k
		c.SrcID = in.ID
		for i, t := range c.Ins {
			if r.Axes[t] == AxisNP {
				continue // weights shared whole
			}
			first, ok := ensureParts(t)
			if !ok {
				return fmt.Errorf("no axis for tensor %%%d consumed by %s", t, in.Name)
			}
			c.Ins[i] = first + ref.part
		}
		for i, t := range c.Outs {
			first, ok := ensureParts(t)
			if !ok {
				return fmt.Errorf("no axis for tensor %%%d produced by %s", t, in.Name)
			}
			c.Outs[i] = first + ref.part
			c.PartAxis = int(r.Axes[t])
		}
		ng.Emit(c)
	}

	// Reconstruct ops for tensors the rest of the graph consumes.
	for _, in := range window {
		for _, t := range in.Outs {
			needed := false
			for _, cons := range g.Consumers(t) {
				if !inside(cons) {
					needed = true
					break
				}
			}
			if !needed {
				continue
			}
			axis := r.Axes[t]
			var bytes int64
			if axis == AxisIrr {
				bytes = 2 * g.Tensor(t).Bytes()
			}
			c := ng.NewInstr(k, 1)
			ins, outs := c.Ins, c.Outs
			for p := range ins {
				ins[p] = sc.partOf[t] + p
			}
			outs[0] = t
			*c = ir.Instr{
				Name: nm.join(g.Tensor(t).Name, ".reconstruct", -1), Op: ir.OpReconstruct,
				Phase: ir.Forward, Layer: in.Layer,
				Ins: ins, Outs: outs, Bytes: bytes,
				Group: groupID, NumParts: k, SrcID: -1, PartAxis: int(axis),
			}
			ng.Emit(c)
		}
	}
	return nil
}

// names builds a rewrite's derived tensor and instruction names in one
// append-only buffer. Each name is a substring of the buffer's contents,
// and bytes once written never change, so the names stay valid as the
// buffer grows.
type names struct{ b strings.Builder }

// join returns base+suffix, followed by part in decimal when part >= 0.
func (nm *names) join(base, suffix string, part int) string {
	start := nm.b.Len()
	nm.b.WriteString(base)
	nm.b.WriteString(suffix)
	if part >= 0 {
		var digits [20]byte
		nm.b.Write(strconv.AppendInt(digits[:0], int64(part), 10))
	}
	return nm.b.String()[start:]
}

// scaledShape writes the shape of piece p of a k-way split of s along axis
// into buf's storage and returns it.
func scaledShape(buf, s ir.Shape, axis Axis, k, p int) ir.Shape {
	out := append(buf[:0], s...)
	dim := 0
	switch axis {
	case AxisBatch:
		dim = 0
	case AxisCap, AxisIrr:
		if len(s) >= 2 {
			dim = 1
		}
	default:
		return out
	}
	base, rem := s[dim]/k, s[dim]%k
	if p < rem {
		out[dim] = base + 1
	} else {
		out[dim] = base
	}
	return out
}

// Apply materializes externally constructed ranges (used by the Tutel
// baseline, which fixes its partition to the a2a+experts core instead of
// searching).
func Apply(g *ir.Graph, ranges []Range) (*ir.Graph, error) {
	sc := getScratch()
	defer putScratch(sc)
	return applyRanges(g, ranges, sc)
}

// InferAxes exposes partition-axis inference for externally constructed
// windows: the window's assignment, or nil when it is not partitionable.
func InferAxes(g *ir.Graph, window []*ir.Instr, gatePartialBatch bool) Assignment {
	sc := getScratch()
	defer putScratch(sc)
	sc.beginAxes(g, gatePartialBatch)
	if !sc.solveAxes(g, window) {
		return nil
	}
	return sc.assignment()
}

// PipelinePredictUs exposes the pipeline scheduler's P(i,n,k) estimate for
// an externally constructed window, priced under uniform routing.
func PipelinePredictUs(g *ir.Graph, cm *cost.Model, window []*ir.Instr, asg Assignment, k int) float64 {
	return pipelineCost(g, cm, window, asg, k, nil, 1)
}

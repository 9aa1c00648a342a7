package ir

import "fmt"

// ReorderedCopy returns a new graph with the same tensor table and the same
// instructions re-emitted in the given schedule order, so that the copy's
// program order is the schedule. Instruction IDs are reassigned; the
// original graph is untouched.
func ReorderedCopy(g *Graph, order []int) (*Graph, error) {
	if err := g.ValidateSchedule(order); err != nil {
		return nil, fmt.Errorf("ir: reorder: %w", err)
	}
	operands := 0
	for _, in := range g.Instrs {
		operands += len(in.Ins) + len(in.Outs)
	}
	ng := CopyTensors(g, len(g.Instrs), 0, operands)
	for _, id := range order {
		ng.Emit(ng.CloneInstr(g.Instr(id)))
	}
	return ng, nil
}

// CopyTensors returns a graph holding a deep copy of g's tensor table and
// no instructions, with room reserved for instrs instructions, tensors
// more tensors and ints more ints of shapes and operands, so a copy or
// rewrite that knows its size up front fills the graph from one slab chunk
// of each kind.
func CopyTensors(g *Graph, instrs, tensors, ints int) *Graph {
	tensors += len(g.Tensors)
	for _, t := range g.Tensors {
		ints += len(t.Shape)
	}
	ng := &Graph{
		Instrs:  make([]*Instr, 0, instrs),
		Tensors: make([]*Tensor, 0, tensors),
		slab:    slab{instrs: make([]Instr, instrs), tensors: make([]Tensor, tensors), ints: make([]int, ints)},
	}
	for _, t := range g.Tensors {
		c := ng.slab.tensor()
		*c = *t
		c.Shape = ng.slab.copyInts(t.Shape)
		ng.Tensors = append(ng.Tensors, c)
	}
	return ng
}

package ir

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Graph is an SSA-style instruction-sequence program: an ordered list of
// instructions over a set of tensors. The list order is the default execution
// schedule; passes reorder and rewrite it.
//
// Dependency tables are dense, indexed by tensor or instruction ID. The
// producer table is kept up to date by Emit; consumer and instruction-level
// adjacency lists are built lazily, together, on the first query after the
// graph grew. Tensors, their shapes and the instructions the graph copies
// come out of a per-graph slab rather than one allocation each.
type Graph struct {
	Tensors []*Tensor
	Instrs  []*Instr

	// producer[t] is the instruction producing tensor t, or -1 for graph
	// inputs. Emit extends it to the tensor table's length when it records
	// an output past its end; IDs past its end have no producer.
	producer []int

	// adj is the lazily built adjacency (see adjacency). adjMu serializes
	// the build: construction and rewriting are single-goroutine, but a
	// finished graph is read by concurrent plans and simulations (e.g.
	// cmd/lancet -parallel shares one Session's graph across frameworks),
	// and the first readers must not race each other on the lazy init.
	adjMu sync.Mutex
	adj   atomic.Pointer[adjacency]

	slab slab
}

// adjacency holds the consumer lists of every tensor and the predecessor
// and successor lists of every instruction in compressed sparse rows: the
// list of x is ids[off[x]:off[x+1]] in its offset array, and all three
// share one ID buffer. It describes the graph at nInstrs instructions and
// nTensors tensors; a graph that has grown since gets a fresh one.
type adjacency struct {
	nInstrs, nTensors int
	consOff           []int // per tensor; a consumer appears once per use
	predOff           []int // per instruction; sorted, deduplicated
	succOff           []int // per instruction; sorted, deduplicated
	ids               []int
}

func (a *adjacency) list(off []int, x int) []int {
	lo, hi := off[x], off[x+1]
	return a.ids[lo:hi:hi]
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// NewTensor creates and registers a tensor.
func (g *Graph) NewTensor(name string, shape Shape, dt DType, kind TensorKind) *Tensor {
	t := g.slab.tensor()
	*t = Tensor{ID: len(g.Tensors), Name: name, Shape: g.slab.copyInts(shape), DType: dt, Kind: kind}
	g.Tensors = append(g.Tensors, t)
	return t
}

// NewInstr returns a zeroed instruction with nIns inputs and nOuts outputs,
// all carved from the graph's slab. It is not part of the program until it
// is passed to Emit.
func (g *Graph) NewInstr(nIns, nOuts int) *Instr {
	in := g.slab.instr()
	in.Ins = g.slab.intSlice(nIns)
	in.Outs = g.slab.intSlice(nOuts)
	return in
}

// CloneInstr returns a deep copy of in (any graph's) carved from this
// graph's slab. Like NewInstr, the copy is emitted separately.
func (g *Graph) CloneInstr(in *Instr) *Instr {
	c := g.NewInstr(len(in.Ins), len(in.Outs))
	ins, outs := c.Ins, c.Outs
	*c = *in
	c.Ins, c.Outs = ins, outs
	copy(c.Ins, in.Ins)
	copy(c.Outs, in.Outs)
	return c
}

// Emit appends an instruction to the program. The instruction's ID is
// assigned; Group/SrcID default to -1 when unset. It panics if an output
// already has a producer. Output IDs outside the tensor table are not
// recorded; Validate reports them.
func (g *Graph) Emit(in *Instr) *Instr {
	in.ID = len(g.Instrs)
	if in.Group == 0 && in.NumParts == 0 {
		in.Group = -1
		in.SrcID = -1
	}
	g.Instrs = append(g.Instrs, in)
	for _, o := range in.Outs {
		if o >= len(g.producer) && o < len(g.Tensors) {
			n := len(g.producer)
			g.producer = append(g.producer, make([]int, len(g.Tensors)-n)...)
			for i := n; i < len(g.producer); i++ {
				g.producer[i] = -1
			}
		}
		if o < 0 || o >= len(g.producer) {
			continue
		}
		if prev := g.producer[o]; prev >= 0 {
			panic(fmt.Sprintf("ir: tensor %%%d has two producers: @%d and @%d", o, prev, in.ID))
		}
		g.producer[o] = in.ID
	}
	return in
}

// Tensor returns the tensor with the given ID.
func (g *Graph) Tensor(id int) *Tensor { return g.Tensors[id] }

// Instr returns the instruction with the given ID.
func (g *Graph) Instr(id int) *Instr { return g.Instrs[id] }

// Producer returns the instruction ID producing tensor id, or -1 for graph
// inputs (weights, input tokens).
func (g *Graph) Producer(id int) int {
	if id < 0 || id >= len(g.producer) {
		return -1
	}
	return g.producer[id]
}

// Consumers returns the instruction IDs consuming tensor id, in program
// order, once per use.
func (g *Graph) Consumers(id int) []int {
	a := g.adjacency()
	if id < 0 || id >= a.nTensors {
		return nil
	}
	return a.list(a.consOff, id)
}

// Succs returns the instructions directly depending on instruction id.
func (g *Graph) Succs(id int) []int {
	a := g.adjacency()
	return a.list(a.succOff, id)
}

// Preds returns the instructions instruction id directly depends on.
func (g *Graph) Preds(id int) []int {
	a := g.adjacency()
	return a.list(a.predOff, id)
}

// adjacency returns the graph's adjacency, building it on the first call
// after the graph grew.
func (g *Graph) adjacency() *adjacency {
	if a := g.adj.Load(); a != nil && a.nInstrs == len(g.Instrs) && a.nTensors == len(g.Tensors) {
		return a
	}
	g.adjMu.Lock()
	defer g.adjMu.Unlock()
	if a := g.adj.Load(); a != nil && a.nInstrs == len(g.Instrs) && a.nTensors == len(g.Tensors) {
		return a
	}
	a := g.buildAdj()
	g.adj.Store(a)
	return a
}

// buildAdj builds the three CSR tables in three allocations: the offset
// arrays, the shared ID buffer, and a small buffer counting predecessors.
func (g *Graph) buildAdj() *adjacency {
	n, nt := len(g.Instrs), len(g.Tensors)
	uses, preds := 0, 0
	var buf []int
	for _, in := range g.Instrs {
		uses += len(in.Ins)
		buf = g.appendPreds(buf[:0], in)
		preds += len(buf)
	}
	offs := make([]int, nt+1+2*(n+1))
	a := &adjacency{
		nInstrs: n, nTensors: nt,
		consOff: offs[: nt+1 : nt+1],
		predOff: offs[nt+1 : nt+n+2 : nt+n+2],
		succOff: offs[nt+n+2:],
		ids:     make([]int, 0, uses+2*preds),
	}

	// Consumers: count per tensor, prefix-sum, then fill in program order
	// by bumping each tensor's offset and shifting the array back.
	for _, in := range g.Instrs {
		for _, x := range in.Ins {
			if x >= 0 && x < nt {
				a.consOff[x+1]++
			}
		}
	}
	for t := 0; t < nt; t++ {
		a.consOff[t+1] += a.consOff[t]
	}
	a.ids = a.ids[:a.consOff[nt]]
	for _, in := range g.Instrs {
		for _, x := range in.Ins {
			if x >= 0 && x < nt {
				a.ids[a.consOff[x]] = in.ID
				a.consOff[x]++
			}
		}
	}
	copy(a.consOff[1:], a.consOff[:nt])
	a.consOff[0] = 0

	// Predecessors, relative to base until the final rebase.
	base := len(a.ids)
	for i, in := range g.Instrs {
		a.predOff[i] = len(a.ids) - base
		a.ids = g.appendPreds(a.ids, in)
	}
	a.predOff[n] = len(a.ids) - base
	predIDs := a.ids[base:]

	// Successors: the transpose of the predecessor lists. Filling in
	// ascending instruction order leaves every list sorted and unique.
	for i := 0; i < n; i++ {
		for _, p := range predIDs[a.predOff[i]:a.predOff[i+1]] {
			a.succOff[p+1]++
		}
	}
	for i := 0; i < n; i++ {
		a.succOff[i+1] += a.succOff[i]
	}
	sbase := len(a.ids)
	a.ids = a.ids[:sbase+a.succOff[n]]
	succs := a.ids[sbase:]
	for i := 0; i < n; i++ {
		for _, p := range predIDs[a.predOff[i]:a.predOff[i+1]] {
			succs[a.succOff[p]] = i
			a.succOff[p]++
		}
	}
	copy(a.succOff[1:], a.succOff[:n])
	a.succOff[0] = 0

	// Rebase the instruction offsets onto the shared buffer.
	for i := range a.predOff {
		a.predOff[i] += base
		a.succOff[i] += sbase
	}
	return a
}

// appendPreds appends the distinct producers of in's inputs, sorted, to
// ids.
func (g *Graph) appendPreds(ids []int, in *Instr) []int {
	lo := len(ids)
	for _, x := range in.Ins {
		if p := g.Producer(x); p >= 0 && !slices.Contains(ids[lo:], p) {
			ids = append(ids, p)
		}
	}
	slices.Sort(ids[lo:])
	return ids
}

// ReachableFrom returns the set (as a bitmap indexed by instruction ID) of
// instructions transitively reachable from id, excluding id itself.
func (g *Graph) ReachableFrom(id int) []bool {
	a := g.adjacency()
	return a.reach(a.succOff, id)
}

// ReachableTo returns the set of instructions from which id is transitively
// reachable, excluding id itself.
func (g *Graph) ReachableTo(id int) []bool {
	a := g.adjacency()
	return a.reach(a.predOff, id)
}

// reach marks every instruction transitively reachable from id along the
// lists of off (successors or predecessors), excluding id itself.
func (a *adjacency) reach(off []int, id int) []bool {
	seen := make([]bool, a.nInstrs)
	stack := append([]int(nil), a.list(off, id)...)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		stack = append(stack, a.list(off, cur)...)
	}
	return seen
}

// Independent reports whether no directed path exists between instructions a
// and b in either direction — the paper's condition (Sec. 4.1) for a weight
// gradient computation to overlap with an all-to-all.
func (g *Graph) Independent(a, b int) bool {
	if a == b {
		return false
	}
	from := g.ReachableFrom(a)
	if from[b] {
		return false
	}
	to := g.ReachableTo(a)
	return !to[b]
}

// Validate checks the structural invariants: instruction IDs match their
// positions, every consumed tensor exists, and the program order is a valid
// topological order (each instruction appears after all its producers).
func (g *Graph) Validate() error {
	for i, in := range g.Instrs {
		if in.ID != i {
			return fmt.Errorf("ir: instruction at position %d has ID %d", i, in.ID)
		}
		for _, x := range in.Ins {
			if x < 0 || x >= len(g.Tensors) {
				return fmt.Errorf("ir: @%d consumes unknown tensor %%%d", in.ID, x)
			}
			if p := g.Producer(x); p >= i {
				return fmt.Errorf("ir: @%d consumes %%%d produced later by @%d", in.ID, x, p)
			}
		}
		for _, y := range in.Outs {
			if y < 0 || y >= len(g.Tensors) {
				return fmt.Errorf("ir: @%d produces unknown tensor %%%d", in.ID, y)
			}
		}
	}
	return nil
}

// ValidateSchedule checks that order is a permutation of all instruction IDs
// respecting data dependencies.
func (g *Graph) ValidateSchedule(order []int) error {
	if len(order) != len(g.Instrs) {
		return fmt.Errorf("ir: schedule has %d entries, graph has %d instructions", len(order), len(g.Instrs))
	}
	pos := make([]int, len(g.Instrs))
	for i := range pos {
		pos[i] = -1
	}
	for p, id := range order {
		if id < 0 || id >= len(g.Instrs) {
			return fmt.Errorf("ir: schedule entry %d out of range", id)
		}
		if pos[id] != -1 {
			return fmt.Errorf("ir: instruction @%d scheduled twice", id)
		}
		pos[id] = p
	}
	for _, in := range g.Instrs {
		for _, p := range g.Preds(in.ID) {
			if pos[p] > pos[in.ID] {
				return fmt.Errorf("ir: @%d scheduled before its dependency @%d", in.ID, p)
			}
		}
	}
	return nil
}

// DefaultSchedule returns the program-order schedule [0, 1, ..., N-1].
func (g *Graph) DefaultSchedule() []int {
	order := make([]int, len(g.Instrs))
	for i := range order {
		order[i] = i
	}
	return order
}

// AllToAlls returns the IDs of all all-to-all instructions in program order.
func (g *Graph) AllToAlls() []int {
	var ids []int
	for _, in := range g.Instrs {
		if in.Op == OpAllToAll {
			ids = append(ids, in.ID)
		}
	}
	return ids
}

// Stats summarizes a graph for reporting and tests.
type Stats struct {
	Instrs      int
	CommInstrs  int
	DWInstrs    int
	TotalFLOPs  float64
	CommBytes   int64
	WeightBytes int64
}

// ComputeStats walks the graph once and aggregates counters.
func (g *Graph) ComputeStats() Stats {
	var s Stats
	s.Instrs = len(g.Instrs)
	for _, in := range g.Instrs {
		if in.IsComm() {
			s.CommInstrs++
			s.CommBytes += in.Bytes
		}
		if in.IsDW() {
			s.DWInstrs++
		}
		s.TotalFLOPs += in.FLOPs
	}
	for _, t := range g.Tensors {
		if t.Kind == Weight {
			s.WeightBytes += t.Bytes()
		}
	}
	return s
}

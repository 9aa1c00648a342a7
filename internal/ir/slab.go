package ir

// slab carves instructions, tensors and int slices (Ins, Outs, shapes) out
// of a few shared backing arrays, so building or copying a graph of
// thousands of instructions makes a handful of allocations instead of
// several per instruction. Slices handed out are capacity-capped, so an
// append to one reallocates instead of running into its neighbor. The slab
// grows by whole chunks and never moves a chunk, so handed-out pointers stay
// valid. CopyTensors sizes the first chunks for copies and rewrites; a
// graph built without a size up front (model.Build's NewTensor calls)
// refills in chunks that double up to a cap, which bounds the unused tail
// a long-lived graph keeps to one capped chunk per kind.
type slab struct {
	instrs  []Instr
	tensors []Tensor
	ints    []int
	chunk   int // size of the next default chunk, doubled on each refill up to maxChunk
}

const minChunk, maxChunk = 32, 256

// next returns the size of a refill that holds at least n items.
func (s *slab) next(n int) int {
	s.chunk = min(max(2*s.chunk, minChunk), maxChunk)
	return max(s.chunk, n)
}

func (s *slab) instr() *Instr {
	if len(s.instrs) == 0 {
		s.instrs = make([]Instr, s.next(1))
	}
	in := &s.instrs[0]
	s.instrs = s.instrs[1:]
	return in
}

func (s *slab) tensor() *Tensor {
	if len(s.tensors) == 0 {
		s.tensors = make([]Tensor, s.next(1))
	}
	t := &s.tensors[0]
	s.tensors = s.tensors[1:]
	return t
}

// intSlice returns a zeroed slice of length and capacity n, or nil for
// n == 0.
func (s *slab) intSlice(n int) []int {
	if n == 0 {
		return nil
	}
	if len(s.ints) < n {
		s.ints = make([]int, s.next(n))
	}
	xs := s.ints[:n:n]
	s.ints = s.ints[n:]
	return xs
}

// copyInts returns a slab copy of xs, preserving nil-ness for empty
// slices the same way append([]int(nil), xs...) does.
func (s *slab) copyInts(xs []int) []int {
	c := s.intSlice(len(xs))
	copy(c, xs)
	return c
}

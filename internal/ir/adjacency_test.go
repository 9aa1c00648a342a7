package ir

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// naiveAdj recomputes the dependency tables of g from scratch by scanning
// the instruction list: the slow oracle for the dense producer table and
// the lazily built CSR adjacency.
type naiveAdj struct {
	producer  []int   // per tensor
	consumers [][]int // per tensor, once per use, program order
	preds     [][]int // per instruction, sorted, unique
	succs     [][]int // per instruction, sorted, unique
}

func naive(g *Graph) naiveAdj {
	var a naiveAdj
	a.producer = make([]int, len(g.Tensors))
	a.consumers = make([][]int, len(g.Tensors))
	for t := range g.Tensors {
		a.producer[t] = -1
		for _, in := range g.Instrs {
			if slices.Contains(in.Outs, t) {
				a.producer[t] = in.ID
				break
			}
		}
		for _, in := range g.Instrs {
			for _, x := range in.Ins {
				if x == t {
					a.consumers[t] = append(a.consumers[t], in.ID)
				}
			}
		}
	}
	a.preds = make([][]int, len(g.Instrs))
	a.succs = make([][]int, len(g.Instrs))
	for _, in := range g.Instrs {
		for _, x := range in.Ins {
			if x < 0 || x >= len(a.producer) {
				continue
			}
			if p := a.producer[x]; p >= 0 && !slices.Contains(a.preds[in.ID], p) {
				a.preds[in.ID] = append(a.preds[in.ID], p)
			}
		}
		slices.Sort(a.preds[in.ID])
	}
	for _, in := range g.Instrs {
		for _, p := range a.preds[in.ID] {
			a.succs[p] = append(a.succs[p], in.ID)
		}
	}
	return a
}

// check compares every query of g with the oracle and returns the first
// mismatch, or "".
func (a naiveAdj) check(g *Graph) string {
	for t := range a.producer {
		if got := g.Producer(t); got != a.producer[t] {
			return "producer"
		}
		if got := g.Consumers(t); !slices.Equal(got, a.consumers[t]) {
			return "consumers"
		}
	}
	for i := range a.preds {
		if got := g.Preds(i); !slices.Equal(got, a.preds[i]) {
			return "preds"
		}
		if got := g.Succs(i); !slices.Equal(got, a.succs[i]) {
			return "succs"
		}
	}
	return ""
}

// genDAG builds a random valid program over the shapes the adjacency has
// to handle: graph inputs (weights and activations nobody produces),
// instructions consuming one tensor several times, instructions with no
// inputs or no outputs, and tensors registered either through NewTensor or
// appended straight to Tensors the way ReorderedCopy fills its table. When
// probe is non-nil it is called at random points mid-construction, so
// adjacency built before the graph grew is exercised too.
func genDAG(rng *rand.Rand, n int, probe func(*Graph)) *Graph {
	g := NewGraph()
	newTensor := func(kind TensorKind) int {
		if rng.Intn(3) == 0 {
			t := &Tensor{ID: len(g.Tensors), Name: "raw", Shape: Shape{2}, DType: F32, Kind: kind}
			g.Tensors = append(g.Tensors, t)
			return t.ID
		}
		return g.NewTensor("t", Shape{2}, F32, kind).ID
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		kind := Activation
		if rng.Intn(2) == 0 {
			kind = Weight
		}
		newTensor(kind)
	}
	for i := 0; i < n; i++ {
		ins := make([]int, rng.Intn(4))
		for j := range ins {
			if j > 0 && rng.Intn(3) == 0 {
				ins[j] = ins[rng.Intn(j)] // duplicate input
			} else {
				ins[j] = rng.Intn(len(g.Tensors))
			}
		}
		outs := make([]int, rng.Intn(3))
		for j := range outs {
			outs[j] = newTensor(Activation)
		}
		if rng.Intn(5) == 0 {
			newTensor(Activation) // never produced
		}
		g.Emit(&Instr{Op: OpGeLU, Ins: ins, Outs: outs})
		if probe != nil && rng.Intn(8) == 0 {
			probe(g)
		}
	}
	newTensor(Activation) // appended after the last Emit
	return g
}

// Property: on generated DAGs the producer table and the lazily built
// consumer, predecessor and successor lists equal a naive recomputation —
// including when queried mid-construction and re-queried after the graph
// grew.
func TestAdjacencyMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var bad string
		g := genDAG(rng, 1+rng.Intn(40), func(g *Graph) {
			if m := naive(g).check(g); m != "" && bad == "" {
				bad = "mid-construction " + m
			}
		})
		if bad != "" {
			t.Fatalf("seed %d: %s differs from the naive recomputation", seed, bad)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: generated graph invalid: %v", seed, err)
		}
		if m := naive(g).check(g); m != "" {
			t.Fatalf("seed %d: %s differs from the naive recomputation", seed, m)
		}
		if got := g.Consumers(len(g.Tensors)); got != nil {
			t.Fatalf("seed %d: Consumers past the tensor table = %v", seed, got)
		}
	}
}

// Concurrent first readers of a finished graph must agree with the oracle
// and, under -race, must not race on the lazy adjacency build.
func TestAdjacencyConcurrentReaders(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := genDAG(rand.New(rand.NewSource(seed)), 60, nil)
		// The oracle reads only Instrs and Tensors, never the lazy tables.
		want := naive(g)
		var wg sync.WaitGroup
		errs := make([]string, 4)
		for r := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[r] = want.check(g)
			}()
		}
		wg.Wait()
		for r, m := range errs {
			if m != "" {
				t.Fatalf("seed %d reader %d: %s differs from the naive recomputation", seed, r, m)
			}
		}
	}
}

// Negative and out-of-range tensor IDs are construction bugs that Validate
// reports; Emit must not panic on them, and the dependency queries must
// not either.
func TestValidateRejectsBadTensorIDs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		ins, outs []int
	}{
		{"negative input", []int{-1}, nil},
		{"input past the table", []int{2}, nil},
		{"huge input", []int{1 << 40}, nil},
		{"negative output", nil, []int{-3}},
		{"output past the table", nil, []int{5}},
		{"huge output", nil, []int{1 << 40}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			g := NewGraph()
			x := g.NewTensor("x", Shape{2}, F32, Activation)
			y := g.NewTensor("y", Shape{2}, F32, Activation)
			g.Emit(&Instr{Op: OpGeLU, Ins: []int{x.ID}, Outs: []int{y.ID}})
			g.Emit(&Instr{Op: OpGeLU, Ins: tc.ins, Outs: tc.outs})
			if err := g.Validate(); err == nil {
				t.Fatal("Validate accepted the bad tensor ID")
			}
			for _, id := range append(tc.ins, tc.outs...) {
				if p := g.Producer(id); p != -1 {
					t.Errorf("Producer(%d) = %d, want -1", id, p)
				}
				if c := g.Consumers(id); c != nil {
					t.Errorf("Consumers(%d) = %v, want none", id, c)
				}
			}
			if m := naive(g).check(g); m != "" {
				t.Errorf("%s of the valid IDs differs from the naive recomputation", m)
			}
		})
	}
}

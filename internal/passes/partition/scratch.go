package partition

import (
	"sync"

	"lancet/internal/cost"
	"lancet/internal/ir"
	"lancet/internal/netsim"
)

// Everything here backs the DP inner loop: zero steady-state
// allocations (DESIGN.md §13), with pool warm-up confined to grow.
//
//lancet:hotpath

// dpScratch is the reusable working set of one partition-pass DP sweep
// (DESIGN.md §13): the prefix/DP tables, the axis solver's binding table
// and assignment, the per-window dependency and stage indexes, the flat
// end-time matrix of the pipeline simulation, and the rewrite's lookup
// tables. All of it is borrowed from a sync.Pool and grown monotonically,
// so the DP inner loop — axis inference, durations, clock simulation,
// boundary costs — allocates nothing in steady state. Window-local lookups
// (instruction position, produced/seen tensor marks, tensor axes) are
// generation-stamped arrays indexed by instruction or tensor ID: bumping
// the generation invalidates every stale entry in O(1).
type dpScratch struct {
	// DP tables (Run).
	prefix []float64
	bounds []int
	T      []float64
	best   []choice

	// Window index (prepareWindow): position of each window instruction by
	// ID, window-local dependency edges as depBuf[depOff[i]:depOff[i+1]],
	// and the stream-run stages as position ranges [stOff[s], stOff[s+1]).
	posOf  []int
	posGen []uint64
	depOff []int
	depBuf []int
	stOff  []int
	winGen uint64

	// Axis solver (solveAxes, DESIGN.md §13): the per-instruction operator
	// constraints flattened into one binding table — the combos of
	// instruction ID are comboSpans[combosOf[ID]], each a range of binds,
	// stamped with tableGen — and the assignment as a per-tensor axis array
	// stamped with axStamp, with trail listing the bound tensors in binding
	// order for backtracking.
	gatePartial bool
	binds       []binding
	comboSpans  []span
	combosOf    []span
	combosGen   []uint64
	tableGen    uint64
	axOf        []Axis
	axGen       []uint64
	axStamp     uint64
	trail       []int

	// Pipeline simulation (pipelineSpan): per-position micro durations and
	// the flat end-time matrix indexed pos*k+part.
	durs []float64
	end  []float64

	// Sweep-level duration memo: instanceDur depends only on the
	// instruction and k (the profile, model and payload fraction are fixed
	// for a whole DP sweep), and overlapping candidate windows revisit the
	// same instructions at every k. One slot per (instruction ID, k),
	// indexed ID*durStride+k and stamped with durGen.
	durMemo    []float64
	durMemoGen []uint64
	durStride  int
	durGen     uint64

	// Boundary-cost marks (boundaryCostUs), stamped with markGen.
	insideI []uint64
	prodT   []uint64
	seenT   []uint64
	markGen uint64

	// Rewrite (applyRanges): the range index covering each instruction
	// (-1 outside every range), each tensor's first piece in the current
	// range (stamped with markGen, like seenT) and a piece-shape buffer.
	rangeOf []int
	partOf  []int
	partGen []uint64
	shape   ir.Shape

	// tmp is the scratch instruction micro-partition and reconstruct
	// pricing hand to the cost model instead of allocating a copy per
	// candidate.
	tmp ir.Instr
}

var dpPool = sync.Pool{New: func() any { return new(dpScratch) }}

func getScratch() *dpScratch { return dpPool.Get().(*dpScratch) }

func putScratch(sc *dpScratch) {
	// Drop the last priced instruction's operand slices so a pooled
	// scratch doesn't pin a finished graph's slab.
	sc.tmp = ir.Instr{}
	dpPool.Put(sc)
}

// grow returns a slice of length n backed by s when it has the capacity,
// or a fresh allocation otherwise (only until the pool warms up to the
// largest graph). Contents are unspecified; callers overwrite or stamp.
//
//lancet:alloc-ok
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// beginDurMemo opens a fresh duration-memo generation covering instruction
// IDs below nInstrs and partition counts up to kmax. Must be called before
// pipelineSpan whenever the pricing inputs (model, profile, payload
// fraction) may have changed.
func (sc *dpScratch) beginDurMemo(nInstrs, kmax int) {
	sc.durStride = kmax + 1
	n := nInstrs * sc.durStride
	sc.durMemo = grow(sc.durMemo, n)
	sc.durMemoGen = grow(sc.durMemoGen, n)
	sc.durGen++
}

// prepareWindow builds the k-independent index of one candidate window:
// instruction-ID→position map, window-local dependency edges (in program
// order, predecessors as returned by g.Preds), and the window's stage
// ranges (see stageStarts).
func (sc *dpScratch) prepareWindow(g *ir.Graph, window []*ir.Instr) {
	n := len(window)
	sc.posOf = grow(sc.posOf, len(g.Instrs))
	sc.posGen = grow(sc.posGen, len(g.Instrs))
	sc.winGen++
	gen := sc.winGen
	for i, in := range window {
		sc.posOf[in.ID] = i
		sc.posGen[in.ID] = gen
	}
	sc.depOff = grow(sc.depOff, n+1)
	sc.depBuf = sc.depBuf[:0]
	for i, in := range window {
		sc.depOff[i] = len(sc.depBuf)
		for _, p := range g.Preds(in.ID) {
			if sc.posGen[p] == gen {
				sc.depBuf = append(sc.depBuf, sc.posOf[p])
			}
		}
	}
	sc.depOff[n] = len(sc.depBuf)
	sc.stOff = stageStarts(window, sc.stOff)
}

// pipelineSpan simulates the stage pipeline of a prepared window at
// partition count k and returns its end-to-end span — pipelineCost minus
// the k-independent boundary cost, which Run hoists out of the k loop. The
// issue order is schedulePlan's (stages in order; within a stage,
// partitions; within both, program order), walked over the stage ranges so
// a (stage, partition) pair visits only its own positions; a stage runs on
// one stream by construction.
func (sc *dpScratch) pipelineSpan(cm *cost.Model, window []*ir.Instr, k int, prof *netsim.RoutingProfile, frac float64) float64 {
	n := len(window)
	sc.durs = grow(sc.durs, n)
	for i, in := range window {
		slot := in.ID*sc.durStride + k
		if sc.durMemoGen[slot] != sc.durGen {
			sc.durMemo[slot] = instanceDur(cm, in, k, prof, frac, &sc.tmp)
			sc.durMemoGen[slot] = sc.durGen
		}
		sc.durs[i] = sc.durMemo[slot]
	}
	sc.end = grow(sc.end, n*k)
	end := sc.end
	clear(end)
	var clock [2]float64
	span := 0.0
	for s := 0; s+1 < len(sc.stOff); s++ {
		lo, hi := sc.stOff[s], sc.stOff[s+1]
		stream := 0
		if window[lo].IsComm() {
			stream = 1
		}
		for p := 0; p < k; p++ {
			for pos := lo; pos < hi; pos++ {
				start := clock[stream]
				for _, d := range sc.depBuf[sc.depOff[pos]:sc.depOff[pos+1]] {
					if e := end[d*k+p]; e > start {
						start = e
					}
				}
				e := start + sc.durs[pos]
				end[pos*k+p] = e
				clock[stream] = e
				if e > span {
					span = e
				}
			}
		}
	}
	return span
}

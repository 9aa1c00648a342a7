package partition

import (
	"fmt"
	"math"

	"lancet/internal/cost"
	"lancet/internal/ir"
	"lancet/internal/netsim"
)

// Options configures the pass. The three knobs mirror the paper's
// hyper-parameters (Sec. 6): rho (max partitions), gamma (group size) and
// iota (max partition range).
type Options struct {
	// MaxPartitions is rho, the largest partition count considered.
	// Default 8.
	MaxPartitions int
	// GroupUs is gamma: consecutive instructions are grouped until their
	// total predicted time reaches this, and the DP runs over groups.
	// Default 2000us.
	GroupUs float64
	// MaxRangeGroups is iota expressed in groups: the longest candidate
	// partition range. Default 12.
	MaxRangeGroups int
	// GatePartialBatch states whether the model's gating function can
	// decide routing from partial batches (Switch: yes; Batch Prioritized
	// Routing: no). It bounds how far pipelines may extend (Sec. 2.3).
	GatePartialBatch bool
	// Profile is the active routing profile (DESIGN.md §10). When non-nil,
	// every all-to-all the DP prices — serial windows and partitioned
	// micro-collectives alike — is costed on the link-level network
	// simulator under this traffic shape instead of the closed-form uniform
	// model, so the chosen partition counts adapt to hot-expert traffic.
	// Must be shaped for the cost model's cluster; nil keeps the uniform
	// pricing.
	Profile *netsim.RoutingProfile
	// PayloadFraction is the fraction of the padded all-to-all payload the
	// profiled workload actually routes (tokens dropped by capacity and
	// padding shed by the irregular exchange). It scales the bytes priced
	// under Profile, and the result is capped at the padded closed form —
	// the same two bounds the simulator's replay applies — so the DP
	// optimizes the quantity the simulation will charge. 0 means 1 (full
	// padded payload).
	PayloadFraction float64
}

func (o *Options) fillDefaults() {
	if o.MaxPartitions == 0 {
		o.MaxPartitions = 8
	}
	if o.GroupUs == 0 {
		o.GroupUs = 2000
	}
	if o.MaxRangeGroups == 0 {
		o.MaxRangeGroups = 12
	}
	if o.PayloadFraction <= 0 || o.PayloadFraction > 1 {
		o.PayloadFraction = 1
	}
}

// Range is one chosen pipeline: the instructions [Start, End] (input-graph
// program order, inclusive) partitioned K ways.
type Range struct {
	Start, End  int
	K           int
	Axes        Assignment
	PredictedUs float64
	SerialUs    float64
}

// Result reports the pass outcome.
type Result struct {
	// Graph is the rewritten program with pipelines materialized.
	Graph *ir.Graph
	// Ranges are the chosen pipelines.
	Ranges []Range
	// Evaluations counts P(i,n,k) pipeline-cost evaluations performed.
	Evaluations int
	// ForwardUs is T(N), the DP's predicted optimal forward time.
	ForwardUs float64
	// SerialForwardUs is the predicted unpartitioned forward time.
	SerialForwardUs float64
}

// choice records one DP decision: partition the groups (from, j] k ways (or
// keep them serial when k == 1).
type choice struct {
	from int
	k    int
	pUs  float64
	sUs  float64
}

// Run executes the operator partition pass. The DP sweep runs entirely on a
// pooled scratch arena — prefix and DP tables, the axis solver's binding
// table and per-tensor assignment, per-window dependency and stage indexes,
// the pipeline simulation's end-time matrix — and memoizes each
// (instruction, k) duration for the whole sweep, so the cost model is asked
// about each micro-instance once and the sweep performs no allocations in
// steady state (DESIGN.md §13). Only the chosen ranges get an Assignment
// map. Chosen ranges and costs are byte-identical to the original
// per-candidate implementation.
func Run(g *ir.Graph, cm *cost.Model, opts Options) (*Result, error) {
	opts.fillDefaults()
	if err := cm.ValidateProfile(opts.Profile); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.beginDurMemo(len(g.Instrs), opts.MaxPartitions)
	sc.beginAxes(g, opts.GatePartialBatch)

	// The forward pass is the program prefix; everything after is
	// backward/optimizer and is handled by the dW scheduling pass.
	fwdEnd := len(g.Instrs)
	for i, in := range g.Instrs {
		if in.Phase != ir.Forward {
			fwdEnd = i
			break
		}
	}

	// Price every forward instruction once up front: prefix[i] is the summed
	// predicted time of the first i instructions, so the DP's inner loop
	// prices a window by subtraction instead of re-walking it. The
	// predictions themselves hit the cost model's memoization across the
	// sweep's millions of repeated queries.
	sc.prefix = grow(sc.prefix, fwdEnd+1)
	prefix := sc.prefix
	prefix[0] = 0
	for i := 0; i < fwdEnd; i++ {
		prefix[i+1] = prefix[i] + predictInstr(cm, g.Instr(i), opts.Profile, opts.PayloadFraction)
	}
	sc.bounds = makeGroups(prefix, opts.GroupUs, sc.bounds[:0])
	bounds := sc.bounds
	n := len(bounds) - 1 // number of groups

	res := &Result{}
	sc.T = grow(sc.T, n+1)
	sc.best = grow(sc.best, n+1)
	T, best := sc.T, sc.best
	T[0] = 0
	for j := 1; j <= n; j++ {
		T[j] = math.Inf(1)
		lo := j - opts.MaxRangeGroups
		if lo < 0 {
			lo = 0
		}
		for i := lo; i < j; i++ {
			window := g.Instrs[bounds[i]:bounds[j]]
			serial := prefix[bounds[j]] - prefix[bounds[i]]
			if t := T[i] + serial; t < T[j] {
				T[j] = t
				best[j] = choice{from: i, k: 1, sUs: serial}
			}
			if !windowHasA2A(window) {
				continue
			}
			if !sc.solveAxes(g, window) {
				continue
			}
			kmax := opts.MaxPartitions
			if m := sc.maxParts(g); m < kmax {
				kmax = m
			}
			// The boundary plumbing cost is k-independent; price it once per
			// window and add it to every candidate's simulated span (the same
			// sum pipelineCost computed per candidate).
			boundary := boundaryCostUs(g, cm, window, sc)
			sc.prepareWindow(g, window)
			for k := 2; k <= kmax; k++ {
				p := sc.pipelineSpan(cm, window, k, opts.Profile, opts.PayloadFraction) + boundary
				res.Evaluations++
				if t := T[i] + p; t < T[j] {
					T[j] = t
					best[j] = choice{from: i, k: k, pUs: p, sUs: serial}
				}
			}
		}
	}
	res.ForwardUs = T[n]
	res.SerialForwardUs = prefix[fwdEnd]

	// Backtrack the chosen ranges. The solver is deterministic, so
	// re-solving a chosen window reproduces the assignment the sweep priced.
	for j := n; j > 0; {
		c := best[j]
		if c.k >= 2 {
			sc.solveAxes(g, g.Instrs[bounds[c.from]:bounds[j]])
			res.Ranges = append(res.Ranges, Range{
				Start: bounds[c.from], End: bounds[j] - 1,
				K: c.k, Axes: sc.assignment(), PredictedUs: c.pUs, SerialUs: c.sUs,
			})
		}
		j = c.from
	}
	// Reverse into program order.
	for l, r := 0, len(res.Ranges)-1; l < r; l, r = l+1, r-1 {
		res.Ranges[l], res.Ranges[r] = res.Ranges[r], res.Ranges[l]
	}

	ng, err := applyRanges(g, res.Ranges, sc)
	if err != nil {
		return nil, fmt.Errorf("partition: rewrite failed: %w", err)
	}
	res.Graph = ng
	return res, nil
}

// makeGroups splits the forward prefix into groups of roughly groupUs
// predicted time and returns the group boundaries: bounds[i] is the first
// instruction of group i, bounds[len-1] == len(prefix)-1. The prefix slice
// holds cumulative predicted instruction times (see Run); buf is reused as
// backing storage when it has the capacity.
func makeGroups(prefix []float64, groupUs float64, buf []int) []int {
	fwdEnd := len(prefix) - 1
	bounds := append(buf, 0)
	acc := 0.0
	for i := 0; i < fwdEnd; i++ {
		acc += prefix[i+1] - prefix[i]
		if acc >= groupUs && i+1 < fwdEnd {
			bounds = append(bounds, i+1)
			acc = 0
		}
	}
	bounds = append(bounds, fwdEnd)
	return bounds
}

func windowHasA2A(window []*ir.Instr) bool {
	for _, in := range window {
		if in.Op == ir.OpAllToAll {
			return true
		}
	}
	return false
}

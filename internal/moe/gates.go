// Package moe is a functional (numerically executing) MoE layer runtime on
// simulated devices. It exists to establish the properties Lancet's
// partition pass relies on (paper Sec. 2.3, Challenge 1):
//
//   - micro-batched gating with capacity passing preserves the exact
//     token-to-expert mapping and token dropping of unpartitioned gating
//     for arrival-order gates (Switch, Top-2, Random, Hash);
//   - Batch Prioritized Routing is *not* preserved under batch splitting:
//     a split drops different tokens, though never different per-expert
//     counts, since each chunk admits min(remaining, chunk tokens) per
//     expert in any order;
//   - the irregular all-to-all (Fig. 10) moves only the tokens actually
//     routed, whose per-device counts feed the simulator's irregular
//     payload override.
package moe

import (
	"hash/fnv"
	"sort"

	"lancet/internal/tensor"
)

// CapacityState tracks the remaining dispatch slots of one source device:
// remaining[e] is how many more tokens this device may send to global
// expert e. Micro-batched gating shares one state across micro-batches —
// the "special gating operators that pass capacity information between
// partitions" of Sec. 2.3.
type CapacityState struct {
	remaining []int
}

// NewCapacityState allocates capacity slots for every expert.
func NewCapacityState(experts, capacity int) *CapacityState {
	st := &CapacityState{remaining: make([]int, experts)}
	for i := range st.remaining {
		st.remaining[i] = capacity
	}
	return st
}

// take consumes one slot of expert e, reporting whether one was available.
func (st *CapacityState) take(e int) bool {
	if st.remaining[e] > 0 {
		st.remaining[e]--
		return true
	}
	return false
}

// Remaining returns the unused capacity of expert e.
func (st *CapacityState) Remaining(e int) int { return st.remaining[e] }

// Slot is one (token, expert) routing decision.
type Slot struct {
	Expert int
	Weight float32
	Kept   bool
}

// TokenRoute is the routing decision for one token (up to top-k slots).
type TokenRoute struct {
	Slots []Slot
}

// Gate is a routing algorithm. Route decides expert assignments for a block
// of tokens given their gate scores ([T, E] logits), the tokens' global
// offset within the device batch (so content-independent gates stay
// deterministic under micro-batching), and the device's capacity state,
// which it mutates.
type Gate interface {
	Name() string
	// PartialBatchSafe reports whether routing each token depends only on
	// that token, making batch-partitioned gating mathematically
	// equivalent.
	PartialBatchSafe() bool
	TopK() int
	Route(scores *tensor.Tensor, offset int, st *CapacityState) []TokenRoute
}

// SwitchGate is top-1 routing with arrival-order capacity (Switch
// Transformer).
type SwitchGate struct{}

// Name implements Gate.
func (SwitchGate) Name() string { return "switch" }

// PartialBatchSafe implements Gate.
func (SwitchGate) PartialBatchSafe() bool { return true }

// TopK implements Gate.
func (SwitchGate) TopK() int { return 1 }

// Route implements Gate.
func (SwitchGate) Route(scores *tensor.Tensor, _ int, st *CapacityState) []TokenRoute {
	n := scores.Rows()
	routes := make([]TokenRoute, n)
	slots := make([]Slot, n)
	buf := make([]float32, scores.Cols())
	for i := range routes {
		probs := tensor.Softmax(append(buf[:0], scores.Row(i)...))
		e := tensor.Argmax(probs)
		slots[i] = Slot{Expert: e, Weight: probs[e], Kept: st.take(e)}
		routes[i] = TokenRoute{Slots: slots[i : i+1 : i+1]}
	}
	return routes
}

// Top2Gate is GShard-style top-2 routing.
type Top2Gate struct{}

// Name implements Gate.
func (Top2Gate) Name() string { return "top2" }

// PartialBatchSafe implements Gate.
func (Top2Gate) PartialBatchSafe() bool { return true }

// TopK implements Gate.
func (Top2Gate) TopK() int { return 2 }

// Route implements Gate.
func (Top2Gate) Route(scores *tensor.Tensor, _ int, st *CapacityState) []TokenRoute {
	n := scores.Rows()
	routes := make([]TokenRoute, n)
	slots := make([]Slot, 0, 2*n)
	buf := make([]float32, scores.Cols())
	for i := range routes {
		probs := tensor.Softmax(append(buf[:0], scores.Row(i)...))
		top := tensor.TopK(probs, 2)
		norm := probs[top[0]] + probs[top[1]]
		lo := len(slots)
		for _, e := range top {
			slots = append(slots, Slot{Expert: e, Weight: probs[e] / norm, Kept: st.take(e)})
		}
		routes[i] = TokenRoute{Slots: slots[lo:len(slots):len(slots)]}
	}
	return routes
}

// RandomGate routes each token to a pseudo-random expert derived from the
// token's global position, so the choice is stable under batch splitting
// (THOR-style stochastic experts).
type RandomGate struct {
	Seed uint64
}

// Name implements Gate.
func (RandomGate) Name() string { return "random" }

// PartialBatchSafe implements Gate.
func (RandomGate) PartialBatchSafe() bool { return true }

// TopK implements Gate.
func (RandomGate) TopK() int { return 1 }

// Route implements Gate.
func (g RandomGate) Route(scores *tensor.Tensor, offset int, st *CapacityState) []TokenRoute {
	e := scores.Cols()
	routes := make([]TokenRoute, scores.Rows())
	for i := range routes {
		h := splitmix(g.Seed + uint64(offset+i))
		ex := int(h % uint64(e))
		routes[i] = TokenRoute{Slots: []Slot{{Expert: ex, Weight: 1, Kept: st.take(ex)}}}
	}
	return routes
}

// HashGate routes by a hash of the token's position (Hash Layers).
type HashGate struct{}

// Name implements Gate.
func (HashGate) Name() string { return "hash" }

// PartialBatchSafe implements Gate.
func (HashGate) PartialBatchSafe() bool { return true }

// TopK implements Gate.
func (HashGate) TopK() int { return 1 }

// Route implements Gate.
func (HashGate) Route(scores *tensor.Tensor, offset int, st *CapacityState) []TokenRoute {
	e := scores.Cols()
	routes := make([]TokenRoute, scores.Rows())
	for i := range routes {
		h := fnv.New64a()
		var buf [8]byte
		v := uint64(offset + i)
		for b := 0; b < 8; b++ {
			buf[b] = byte(v >> (8 * b))
		}
		h.Write(buf[:])
		ex := int(h.Sum64() % uint64(e))
		routes[i] = TokenRoute{Slots: []Slot{{Expert: ex, Weight: 1, Kept: st.take(ex)}}}
	}
	return routes
}

// BatchPrioritizedGate sorts the batch by importance score (the largest
// gate probability) and grants capacity in that order (Riquelme et al.), so
// low-importance tokens drop first. Routing depends on the *whole* batch:
// splitting it changes which tokens drop, which is why Lancet may only
// extend partitioning after the MoE layer for this gate (Fig. 4c).
type BatchPrioritizedGate struct{}

// Name implements Gate.
func (BatchPrioritizedGate) Name() string { return "batch_prioritized" }

// PartialBatchSafe implements Gate.
func (BatchPrioritizedGate) PartialBatchSafe() bool { return false }

// TopK implements Gate.
func (BatchPrioritizedGate) TopK() int { return 1 }

// Route implements Gate.
func (BatchPrioritizedGate) Route(scores *tensor.Tensor, _ int, st *CapacityState) []TokenRoute {
	toks := prioritize(scores)
	routes := make([]TokenRoute, len(toks))
	slots := make([]Slot, len(toks))
	for _, i := range priorityOrder(toks) {
		tk := toks[i]
		e := int(tk.expert)
		slots[i] = Slot{Expert: e, Weight: tk.importance, Kept: st.take(e)}
		routes[i] = TokenRoute{Slots: slots[i : i+1 : i+1]}
	}
	return routes
}

// prioToken is one token's Batch Prioritized Routing decision before
// admission: its top-1 expert and its importance (that expert's gate
// probability, which is also the slot weight).
type prioToken struct {
	expert     int32
	importance float32
}

// prioritize scores every row of a [T, E] logit block.
func prioritize(scores *tensor.Tensor) []prioToken {
	toks := make([]prioToken, scores.Rows())
	buf := make([]float32, scores.Cols())
	for i := range toks {
		toks[i] = prioritizeRow(append(buf[:0], scores.Row(i)...))
	}
	return toks
}

// prioritizeRow decides one token from its logits, which it normalizes in
// place.
func prioritizeRow(logits []float32) prioToken {
	probs := tensor.Softmax(logits)
	e := tensor.Argmax(probs)
	return prioToken{expert: int32(e), importance: probs[e]}
}

// priorityOrder is the admission order of a block: token indices by
// descending importance, ties in arrival order.
func priorityOrder(toks []prioToken) []int {
	order := make([]int, len(toks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return toks[order[a]].importance > toks[order[b]].importance
	})
	return order
}

// splitmix is the SplitMix64 mixing function.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

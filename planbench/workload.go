package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"lancet"
	"lancet/internal/service"
)

// Request kinds. A plan is a fresh Lancet computation whose response must
// be new; a read names a pre-populated serve_zipf key and must come back
// from a store tier byte-identical to the body that populated it; a write
// is a fresh-seed baseline-only plan written through the durable store.
const (
	kindPlan  = "plan"
	kindRead  = "read"
	kindWrite = "write"
)

// request is one generated /v1/plan call.
type request struct {
	kind string
	req  service.PlanRequest
	body []byte
}

// stream yields a workload's request sequence. It is deterministic in its
// seed: the i-th call to next returns the same body for the same seed,
// however the callers interleave.
type stream interface{ next() request }

// workload is one traffic mix of the benchmark.
type workload struct {
	name string
	// quality is how many leading requests (plan_cold, plan_skewed) the
	// digest and plan-quality metrics cover. Every run completes at least
	// this many, so both repeat exactly for one seed. serve_zipf takes
	// them from its key space instead and sets 0.
	quality int
	// cacheSize is the memory plan-store capacity in entries (0 selects
	// the service default). durable selects a disk store under the memory
	// tier, pre-populated with keys(seed).
	cacheSize int
	durable   bool
	keys      func(seed int64) []service.PlanRequest
	// warmup returns set-up repetition rep's warm-up requests: fresh
	// keys that fill the process-wide memos and the session pool before
	// the first measured request.
	warmup func(seed int64, rep int) []service.PlanRequest
	stream func(seed int64) stream
}

var workloads = []workload{
	{
		name:    "plan_cold",
		quality: len(coldGrid()),
		warmup:  coldWarmup,
		stream:  func(seed int64) stream { return newBlockStream(seed, coldGrid(), nil) },
	},
	{
		name: "plan_skewed",
		// One group of blocks, in which every stratum's routing draws
		// cover the parameter range once.
		quality: drawGroup * len(skewedGrid()),
		warmup:  skewedWarmup,
		stream:  func(seed int64) stream { return newBlockStream(seed, skewedGrid(), drawRouting) },
	},
	{
		name:      "serve_zipf",
		cacheSize: zipfCacheEntries,
		durable:   true,
		keys:      zipfKeys,
		warmup:    zipfWarmup,
		stream:    newZipfStream,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// Seed spaces keep the simulation seeds of measured requests, key-space
// entries, writes and warm-up requests disjoint, so no two of them share a
// plan-store key by accident.
const (
	spaceRun = iota
	spaceKey
	spaceWrite
	spaceWarmup
)

// simSeed is the request seed of item i in one seed space of a run.
func simSeed(seed int64, space, i int) *int64 {
	s := seed<<24 | int64(space)<<20 | int64(i&(1<<20-1))
	return &s
}

// paperBatch is the paper's per-GPU batch for a model on a GPU type.
func paperBatch(model, gpu string) int {
	cfg, err := lancet.ParseModel(model, 0)
	if err != nil {
		panic(err) // the grids below name known models only
	}
	return cfg.PaperBatchSize(gpu)
}

// coldGrid is plan_cold's stratum grid: every model on both GPU types at
// 16, 32 and 64 GPUs, at a quarter, half, three quarters and all of the
// paper's batch. Its 72 session shapes exceed the service's 32-entry
// session pool, so sessions are rebuilt as the blocks cycle.
func coldGrid() []service.PlanRequest {
	var grid []service.PlanRequest
	for _, m := range []string{"gpt2-s", "gpt2-l", "vit-s"} {
		for _, cl := range []string{"V100", "A100"} {
			for _, gpus := range []int{16, 32, 64} {
				full := paperBatch(m, cl)
				for q := 1; q <= 4; q++ {
					grid = append(grid, service.PlanRequest{
						Model: m, Cluster: cl, GPUs: gpus, Batch: max(1, full*q/4),
						Framework: lancet.FrameworkLancet,
					})
				}
			}
		}
	}
	return grid
}

// skewedGrid is plan_skewed's stratum grid: two models on both GPU types at
// 16 and 32 GPUs behind a 2:1 or 4:1 oversubscribed spine (one node per
// rack at 16 GPUs, two at 32), under Zipf or hot-expert routing whose
// parameter drawRouting fills in per request.
func skewedGrid() []service.PlanRequest {
	var grid []service.PlanRequest
	for _, m := range []string{"gpt2-s", "vit-s"} {
		for _, cl := range []string{"V100", "A100"} {
			for _, gpus := range []int{16, 32} {
				for _, kind := range []string{service.RoutingZipf, service.RoutingHot} {
					for _, oversub := range []float64{2, 4} {
						grid = append(grid, service.PlanRequest{
							Model: m, Cluster: cl, GPUs: gpus,
							Framework: lancet.FrameworkLancet,
							Routing:   &service.RoutingSpec{Kind: kind},
							Topology:  &service.TopologySpec{NodesPerRack: gpus / 16, Oversub: oversub},
						})
					}
				}
			}
		}
	}
	return grid
}

// drawRouting sets the continuous routing parameter from u in [0, 1): a
// Zipf exponent in [0.5, 1.5) or a hot-expert share in [0.15, 0.6).
func drawRouting(r *service.PlanRequest, u float64) {
	spec := *r.Routing
	if spec.Kind == service.RoutingZipf {
		spec.Alpha = 0.5 + u
	} else {
		spec.HotShare = 0.15 + 0.45*u
	}
	r.Routing = &spec
}

// blockStream walks a stratum grid in blocks: each block is a seeded
// permutation of the whole grid, so every prefix of whole blocks holds each
// stratum equally often and the plan-quality metrics barely move between
// seeds. draw, when set, fills in a continuous parameter per request, so
// every request carries a shape never seen. The parameter is a
// Latin-hypercube sample per stratum: over each group of drawGroup blocks,
// a stratum's draws fall one in each drawGroup-th of [0, 1).
type blockStream struct {
	seed int64
	grid []service.PlanRequest
	draw func(*service.PlanRequest, float64)
	perm []int
	bins [][]int // per stratum, the bin order of the current group
	i    int
	rng  *rand.Rand
}

const drawGroup = 4

func newBlockStream(seed int64, grid []service.PlanRequest, draw func(*service.PlanRequest, float64)) *blockStream {
	return &blockStream{seed: seed, grid: grid, draw: draw}
}

func (s *blockStream) next() request {
	n := len(s.grid)
	j, b := s.i%n, s.i/n
	if j == 0 {
		s.rng = rand.New(rand.NewSource(s.seed*1_000_003 + int64(b)))
		s.perm = s.rng.Perm(n)
		if b%drawGroup == 0 {
			s.bins = make([][]int, n)
			for k := range s.bins {
				s.bins[k] = s.rng.Perm(drawGroup)
			}
		}
	}
	k := s.perm[j]
	r := s.grid[k]
	if s.draw != nil {
		s.draw(&r, (float64(s.bins[k][b%drawGroup])+s.rng.Float64())/drawGroup)
	}
	r.Seed = simSeed(s.seed, spaceRun, s.i)
	s.i++
	return newRequest(kindPlan, r)
}

func newRequest(kind string, r service.PlanRequest) request {
	body, err := json.Marshal(r)
	if err != nil {
		panic(err) // PlanRequest always marshals
	}
	return request{kind: kind, req: r, body: body}
}

// coldWarmup plans one fresh key per model and GPU type at 16 GPUs, which
// fills the process-wide routing-proxy memo for the uniform proxy shapes.
func coldWarmup(seed int64, rep int) []service.PlanRequest {
	var out []service.PlanRequest
	for _, m := range []string{"gpt2-s", "gpt2-l", "vit-s"} {
		for _, cl := range []string{"V100", "A100"} {
			out = append(out, service.PlanRequest{
				Model: m, Cluster: cl, GPUs: 16, Framework: lancet.FrameworkLancet,
				Seed: simSeed(seed, spaceWarmup, rep*64+len(out)),
			})
		}
	}
	return out
}

// skewedWarmup plans two skewed shapes outside the measured draw's range,
// so they warm the code paths without memoizing any measured shape.
func skewedWarmup(seed int64, rep int) []service.PlanRequest {
	out := []service.PlanRequest{
		{Routing: &service.RoutingSpec{Kind: service.RoutingZipf, Alpha: 1.75 + 0.01*float64(rep)}},
		{Routing: &service.RoutingSpec{Kind: service.RoutingHot, HotShare: 0.7 + 0.01*float64(rep)}},
	}
	for i := range out {
		out[i].Model, out[i].Cluster, out[i].GPUs = "gpt2-s", "V100", 16
		out[i].Framework = lancet.FrameworkLancet
		out[i].Topology = &service.TopologySpec{NodesPerRack: 1, Oversub: 2}
		out[i].Seed = simSeed(seed, spaceWarmup, rep*64+i)
	}
	return out
}

// serve_zipf sizing. The key space holds zipfShapes × zipfSeedsPerShape
// Lancet plans (each two store entries: the plan and its Tutel baseline);
// the memory tier holds a fraction of them, so reads split between the
// memory and disk tiers. zipfWriteShare of requests are fresh-seed writes.
const (
	zipfSeedsPerShape = 8
	zipfCacheEntries  = 64
	zipfExponent      = 1.1
	zipfWriteShare    = 0.02
)

// zipfShapes are serve_zipf's session shapes: every model on both GPU
// types at 16 and 32 GPUs, at the paper's batch.
func zipfShapes() []service.PlanRequest {
	var out []service.PlanRequest
	for _, m := range []string{"gpt2-s", "gpt2-l", "vit-s"} {
		for _, cl := range []string{"V100", "A100"} {
			for _, gpus := range []int{16, 32} {
				out = append(out, service.PlanRequest{Model: m, Cluster: cl, GPUs: gpus})
			}
		}
	}
	return out
}

// zipfKeys is serve_zipf's key space: zipfSeedsPerShape Lancet plans with
// the default Tutel comparison per shape.
func zipfKeys(seed int64) []service.PlanRequest {
	var out []service.PlanRequest
	for _, shape := range zipfShapes() {
		for range zipfSeedsPerShape {
			r := shape
			r.Framework = lancet.FrameworkLancet
			r.Seed = simSeed(seed, spaceKey, len(out))
			out = append(out, r)
		}
	}
	return out
}

// zipfWrite is a fresh-seed RAF or DeepSpeed plan without a comparison on
// one of the key space's shapes: one sequential simulation and one durable
// write.
func zipfWrite(shape service.PlanRequest, deepspeed bool, seed *int64) service.PlanRequest {
	shape.Framework = lancet.FrameworkRAF
	if deepspeed {
		shape.Framework = lancet.FrameworkDeepSpeed
	}
	shape.Baseline = service.BaselineNone
	shape.Seed = seed
	return shape
}

// zipfWarmup writes one fresh baseline plan per shape, which fills the
// session pool the measured writes draw from.
func zipfWarmup(seed int64, rep int) []service.PlanRequest {
	var out []service.PlanRequest
	for i, shape := range zipfShapes() {
		out = append(out, zipfWrite(shape, i%2 == 1, simSeed(seed, spaceWarmup, rep*64+i)))
	}
	return out
}

// zipfStream draws serve_zipf's traffic: Zipf-popular reads of the key
// space (key popularity ranks are a seeded permutation, so which plans are
// hot changes with the seed) and a zipfWriteShare of fresh writes.
type zipfStream struct {
	seed   int64
	rng    *rand.Rand
	zipf   *rand.Zipf
	rank   []int
	reads  []request
	shapes []service.PlanRequest
	writes int
}

func newZipfStream(seed int64) stream {
	rng := rand.New(rand.NewSource(seed))
	keys := zipfKeys(seed)
	s := &zipfStream{
		seed:   seed,
		rng:    rng,
		zipf:   rand.NewZipf(rng, zipfExponent, 1, uint64(len(keys)-1)),
		rank:   rng.Perm(len(keys)),
		shapes: zipfShapes(),
	}
	for _, r := range keys {
		s.reads = append(s.reads, newRequest(kindRead, r))
	}
	return s
}

func (s *zipfStream) next() request {
	if s.rng.Float64() < zipfWriteShare {
		s.writes++
		shape := s.shapes[s.rng.Intn(len(s.shapes))]
		return newRequest(kindWrite, zipfWrite(shape, s.rng.Intn(2) == 1, simSeed(s.seed, spaceWrite, s.writes)))
	}
	return s.reads[s.rank[s.zipf.Uint64()]]
}

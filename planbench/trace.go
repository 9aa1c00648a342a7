package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"time"

	"lancet"
	"lancet/internal/cost"
	"lancet/internal/ir"
	"lancet/internal/model"
	"lancet/internal/netsim"
	"lancet/internal/passes/dwsched"
	"lancet/internal/passes/partition"
	"lancet/internal/service"
)

// tracer runs the traced path: the same plans the handler computes, built
// by calling each layer's public functions directly from here, with a span
// around every call.
type tracer struct {
	rec      *recorder
	sessions *sessionLRU
	// samples holds the per-layer values that are not read off spans:
	// the reproduced direct pass calls and the Go runtime's counters.
	samples map[string][]float64
	// cost sums the cost-model counter deltas of the cold traced plans
	// (run, and the serve_zipf key-space sample).
	costHits, costMisses, costProfiled int64
	coldPlans                          int
}

func newTracer() *tracer {
	return &tracer{
		rec: newRecorder(),
		// The service pools 32 sessions by default; the traced path pools
		// as many, so it builds a session exactly when the handler does.
		sessions: newSessionLRU(32),
		samples:  make(map[string][]float64),
	}
}

func (t *tracer) sample(name string, v float64) { t.samples[name] = append(t.samples[name], v) }

// sessionLRU is a least-recently-used pool of sessions keyed by shape.
type sessionLRU struct {
	cap  int
	keys []string // most recent last
	sess map[string]*lancet.Session
}

func newSessionLRU(n int) *sessionLRU {
	return &sessionLRU{cap: n, sess: make(map[string]*lancet.Session)}
}

func (l *sessionLRU) get(key string) (*lancet.Session, bool) {
	s, ok := l.sess[key]
	if ok {
		i := slices.Index(l.keys, key)
		l.keys = append(slices.Delete(l.keys, i, i+1), key)
	}
	return s, ok
}

func (l *sessionLRU) put(key string, s *lancet.Session) {
	if len(l.keys) == l.cap {
		delete(l.sess, l.keys[0])
		l.keys = l.keys[1:]
	}
	l.keys = append(l.keys, key)
	l.sess[key] = s
}

// sessionKey is a request's session shape: everything but the framework,
// comparison and seed.
func sessionKey(r service.PlanRequest) string {
	r.Framework, r.Baseline, r.Seed = "", "", nil
	b, _ := json.Marshal(r) // PlanRequest always marshals
	return string(b)
}

// session returns the pooled session for r's shape, building it under a
// model.build span on a pool miss the way the service's buildSession does.
func (t *tracer) session(r service.PlanRequest) (*lancet.Session, error) {
	key := sessionKey(r)
	if s, ok := t.sessions.get(key); ok {
		return s, nil
	}
	cfg, err := lancet.ParseModel(r.Model, r.Batch)
	if err != nil {
		return nil, err
	}
	cl, err := lancet.NewCluster(r.Cluster, r.GPUs)
	if err != nil {
		return nil, err
	}
	if r.Topology != nil {
		topo := lancet.Topology{NodesPerRack: r.Topology.NodesPerRack, Oversubscription: r.Topology.Oversub}
		if cl, err = cl.WithTopology(topo.DefaultRacks()); err != nil {
			return nil, err
		}
	}
	id := t.rec.begin("model.build", true)
	sess, err := lancet.NewSession(cfg, cl)
	t.rec.end(id)
	if err != nil {
		return nil, err
	}
	if t.rec.cold {
		t.sample("model.graph_instrs", float64(len(sess.Built.Graph.Instrs)))
	}
	if r.Routing != nil {
		sess.WorkloadSkew, sess.WorkloadHotExpert = r.Routing.Alpha, r.Routing.HotShare
	}
	t.sessions.put(key, sess)
	return sess, nil
}

// tracedPlan is the traced path's answer for one request.
type tracedPlan struct {
	sess *lancet.Session
	plan *lancet.Plan
	resp service.PlanResponse
}

// planPath computes r's response layer by layer: session, routing
// profile, plan, comparison plan, prediction, simulation and encode.
func (t *tracer) planPath(r request) (*tracedPlan, error) {
	root := t.rec.begin("plan", false)
	defer t.rec.end(root)
	sess, err := t.session(r.req)
	if err != nil {
		return nil, err
	}
	before := sess.CostStats()

	id := t.rec.begin("moe.routing_profile", false)
	_, err = sess.RoutingProfile()
	t.rec.end(id)
	if err != nil {
		return nil, err
	}
	fw := r.req.Framework
	var plan, base *lancet.Plan
	if fw == lancet.FrameworkLancet {
		id = t.rec.begin("passes.plan", true)
		plan, err = sess.Lancet(lancet.Options{})
	} else {
		id = t.rec.begin("baselines."+fw, true)
		plan, err = sess.Baseline(fw)
	}
	t.rec.end(id)
	if err != nil {
		return nil, err
	}
	if r.req.Baseline == "" {
		id = t.rec.begin("baselines.tutel", true)
		base, err = sess.Baseline(lancet.FrameworkTutel)
		t.rec.end(id)
		if err != nil {
			return nil, err
		}
	}

	tp := &tracedPlan{sess: sess, plan: plan, resp: service.PlanResponse{Request: r.req}}
	predict := "baselines.predict"
	if fw == lancet.FrameworkLancet {
		predict = "lancet.predict"
	}
	if tp.resp.Result, err = t.result(plan, *r.req.Seed, predict); err != nil {
		return nil, err
	}
	if base != nil {
		if tp.resp.Baseline, err = t.result(base, *r.req.Seed, "baselines.predict"); err != nil {
			return nil, err
		}
		if !plan.OOM && !base.OOM && tp.resp.Result.IterationMs > 0 {
			tp.resp.SpeedupOverBaseline = tp.resp.Baseline.IterationMs / tp.resp.Result.IterationMs
		}
	}

	id = t.rec.begin("service.encode", false)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(tp.resp)
	t.rec.end(id)
	if err != nil {
		return nil, err
	}

	if t.rec.cold && t.rec.phase != phaseWarmup {
		after := sess.CostStats()
		t.costHits += after.Hits - before.Hits
		t.costMisses += after.Misses - before.Misses
		t.costProfiled += after.ProfiledOps - before.ProfiledOps
		t.coldPlans++
	}
	return tp, nil
}

// result predicts and simulates one plan, as service.Compute does.
func (t *tracer) result(p *lancet.Plan, seed int64, predict string) (*service.Result, error) {
	res := &service.Result{Framework: p.Framework, Name: p.Name, OOM: p.OOM}
	if p.Framework == lancet.FrameworkLancet {
		res.Pipelines = p.Pipelines
	}
	if p.OOM {
		return res, nil
	}
	var err error
	id := t.rec.begin(predict, false)
	res.PredictedUs, err = p.PredictUs()
	t.rec.end(id)
	if err != nil {
		return nil, err
	}
	id = t.rec.begin("sim.simulate", true)
	rep, err := p.Simulate(seed)
	t.rec.end(id)
	if err != nil {
		return nil, err
	}
	res.IterationMs, res.NonOverlappedCommMs = rep.IterationMs, rep.NonOverlappedCommMs
	res.OverlapMs, res.AllToAllMs = rep.OverlapMs, rep.AllToAllMs
	return res, nil
}

// sameResult reports where the traced response departs from the handler's.
func sameResult(traced, served *service.PlanResponse) error {
	pairs := [][2]*service.Result{{traced.Result, served.Result}, {traced.Baseline, served.Baseline}}
	for _, p := range pairs {
		a, b := p[0], p[1]
		if (a == nil) != (b == nil) {
			return fmt.Errorf("traced comparison present %t, served %t", a != nil, b != nil)
		}
		if a == nil {
			continue
		}
		if a.Name != b.Name || a.OOM != b.OOM || a.PredictedUs != b.PredictedUs || a.IterationMs != b.IterationMs ||
			a.NonOverlappedCommMs != b.NonOverlappedCommMs || a.OverlapMs != b.OverlapMs ||
			a.AllToAllMs != b.AllToAllMs || !slices.Equal(a.Pipelines, b.Pipelines) {
			return fmt.Errorf("traced %s result %+v differs from served %+v", a.Framework, *a, *b)
		}
	}
	if traced.SpeedupOverBaseline != served.SpeedupOverBaseline {
		return fmt.Errorf("traced speedup %g, served %g", traced.SpeedupOverBaseline, served.SpeedupOverBaseline)
	}
	return nil
}

// direct re-runs a cold Lancet plan's two passes by calling dwsched and
// partition directly, as Session.Lancet calls them, and keeps their
// samples only when they reproduce the plan's dW overlap, pipelines and
// DP evaluation count.
func (t *tracer) direct(tp *tracedPlan) error {
	sess, plan := tp.sess, tp.plan
	root := t.rec.begin("passes.direct", false)
	defer t.rec.end(root)
	cm := cost.NewModel(sess.Cluster)

	id := t.rec.begin("dwsched.run", true)
	dres, err := dwsched.Run(sess.Built.Graph, cm, dwsched.Options{Strategy: dwsched.BestFit})
	t.rec.end(id)
	if err != nil {
		return err
	}
	t.sample("dwsched.attempts", 1)
	if dres.OverlappedUs == plan.DWOverlapUs {
		s := t.rec.spans[id]
		t.sample("dwsched.run_ms", ms(s.dur()))
		t.sample("dwsched.run_allocs", float64(s.Allocs))
		t.sample("dwsched.overlap_ms", dres.OverlappedUs/1000)
	}

	prof, err := sess.RoutingProfile()
	if err != nil {
		return err
	}
	popts := partition.Options{
		MaxPartitions:    8,
		GroupUs:          autoGroupUs(sess, cm),
		MaxRangeGroups:   7,
		GatePartialBatch: sess.Config.Gate.SupportsPartialBatch(),
		Profile:          prof,
		PayloadFraction:  payloadFraction(sess, prof),
	}
	id = t.rec.begin("partition.run", true)
	evals := 0
	var pres *partition.Result
	for {
		if pres, err = partition.Run(dres.Graph, cm, popts); err != nil {
			break
		}
		evals += pres.Evaluations
		if popts.MaxPartitions <= 2 || partitionFits(sess, pres) {
			break
		}
		popts.MaxPartitions /= 2
	}
	t.rec.end(id)
	if err != nil {
		return err
	}
	t.sample("partition.attempts", 1)
	got := make([]lancet.PipelineHint, len(pres.Ranges))
	for i, r := range pres.Ranges {
		got[i] = lancet.PipelineHint{Start: r.Start, End: r.End, K: r.K}
	}
	if evals == plan.DPEvaluations && slices.Equal(got, plan.Pipelines) {
		s := t.rec.spans[id]
		t.sample("partition.run_ms", ms(s.dur()))
		t.sample("partition.run_allocs", float64(s.Allocs))
		t.sample("partition.dp_evaluations", float64(evals))
		t.sample("partition.pipelines", float64(len(got)))
	}
	return nil
}

// autoGroupUs is Session.Lancet's default gamma: about five groups between
// consecutive MoE layers, priced with the planner's cost model.
func autoGroupUs(sess *lancet.Session, cm *cost.Model) float64 {
	fwd := 0.0
	for _, in := range sess.Built.Graph.Instrs {
		if in.Phase != ir.Forward {
			break
		}
		fwd += cm.PredictInstr(in)
	}
	return fwd / float64(5*max(sess.Config.NumMoELayers(), 1))
}

// partitionFits is Session.Lancet's memory check on a partition result.
func partitionFits(sess *lancet.Session, res *partition.Result) bool {
	var staging int64
	for _, r := range res.Ranges {
		staging += 2 * int64(r.K) * sess.Built.A2ABytes
	}
	return float64(sess.Built.MemoryBytes(model.MemoryCompiled)+staging) <= sess.Cluster.MemBytes()
}

// payloadFraction reconstructs the share of the padded all-to-all payload
// a skewed workload routes, from its routing profile: routed tokens per
// device over the proxy's padded dispatch buffer (256 proxy tokens per
// device at the model's capacity factor). Balanced workloads route the
// full payload. The reconstruction is checked, not trusted: direct
// partition samples count only when they reproduce the served plan.
func payloadFraction(sess *lancet.Session, prof *netsim.RoutingProfile) float64 {
	if prof == nil {
		return 1
	}
	const proxyTokens = 256
	routed := int64(0)
	for _, row := range prof.Counts() {
		for _, c := range row {
			routed += c
		}
	}
	devices := prof.Devices()
	experts := devices * sess.Config.ExpertsPerGPU
	capacity := max(1, int(float64(proxyTokens*sess.Config.Gate.TopK())/float64(experts)*sess.Config.CapacityFactor))
	frac := float64(routed) / float64(devices) / float64(experts*capacity)
	if frac <= 0 || frac >= 1 {
		return 1
	}
	return frac
}

// handler serves r through h under a service.<tier> root span. Cold misses
// also sample the Go runtime's allocation and GC counters.
func (t *tracer) handler(h http.Handler, r request) served {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := t.rec.begin("service", false)
	s := serve(h, r.body)
	t.rec.end(id)
	runtime.ReadMemStats(&m1)
	t.rec.spans[id].Name = "service." + s.state
	if t.rec.cold && s.state == "miss" && t.rec.phase == phaseRun {
		t.sample("runtime.mallocs_per_req", float64(m1.Mallocs-m0.Mallocs))
		t.sample("runtime.alloc_bytes_per_req", float64(m1.TotalAlloc-m0.TotalAlloc))
		t.sample("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC))
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

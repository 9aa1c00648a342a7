package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"lancet"
	"lancet/internal/service"
)

// probeKeys is how many of a memory-only workload's plans the disk-tier
// probe writes through a durable store and reads back after a restart.
const probeKeys = 8

// traceResult is what a traced run reports.
type traceResult struct {
	attempted int
	metrics   map[string]metric
	stages    []stageShare
	spans     []span
}

// traceRun is the per-layer run: one client sends the workload's requests
// in order. Every computed request is answered twice, by the handler and
// by the traced path, and the two must agree; which side goes first
// alternates, so each side is cold (first to fill the process-wide routing
// proxy memo) on half the requests, and only the cold side is measured.
// A computed request is then read again and must come back as an
// identical memory hit.
func traceRun(w workload, seed int64, d time.Duration, dir string, fails *failures) (traceResult, error) {
	t := newTracer()
	rec := t.rec
	ledger := newBodyLedger()
	attempted := 0
	var keySpace []*service.PlanResponse
	if w.durable {
		rec.phase = phaseSetup
		var err error
		if keySpace, err = populate(w, seed, dir, 1, ledger, fails); err != nil {
			return traceResult{}, err
		}
		attempted += len(keySpace)
		// The Lancet planning layers run only while the key space is
		// populated; trace one key of each shape cold to measure them.
		keys := w.keys(seed)
		for k := 0; k < len(keys); k += zipfSeedsPerShape {
			if keySpace[k] == nil {
				continue // its population failure is already counted
			}
			r := newRequest(kindPlan, keys[k])
			rec.req, rec.cold = -1-k, true
			if err := t.traceAgainst(r, keySpace[k]); err != nil {
				fails.add(fmt.Errorf("key %d: %w", k, err))
			}
		}
	}

	rec.phase, rec.req, rec.cold = phaseWarmup, -1, false
	svc, _, err := setup(w, seed, dir, 0, fails)
	if err != nil {
		return traceResult{}, err
	}
	defer svc.Close()
	h := svc.Handler()
	for _, pr := range w.warmup(seed, 0) {
		if _, err := t.planPath(newRequest(kindPlan, pr)); err != nil {
			fails.add(fmt.Errorf("warm-up trace: %w", err))
		}
	}

	rec.phase = phaseRun
	st := w.stream(seed)
	var runBodies [][]byte
	var runReqs []request
	deadline := time.Now().Add(d)
	for i := 0; i < 8 || time.Now().Before(deadline); i++ {
		r := st.next()
		rec.req = i
		attempted++
		if r.kind == kindRead {
			rec.cold = true
			if _, err := verify(r, t.handler(h, r), ledger); err != nil {
				fails.add(fmt.Errorf("request %d: %w", i, err))
			}
			continue
		}
		traceFirst := i%2 == 1
		var tp *tracedPlan
		var terr error
		var s served
		if traceFirst {
			rec.cold = true
			tp, terr = t.planPath(r)
			rec.cold = false
			s = t.handler(h, r)
		} else {
			rec.cold = true
			s = t.handler(h, r)
			rec.cold = false
			tp, terr = t.planPath(r)
		}
		resp, err := verify(r, s, ledger)
		if err == nil {
			err = terr
		}
		if err == nil {
			err = sameResult(&tp.resp, resp)
		}
		if err == nil && traceFirst && r.req.Framework == lancet.FrameworkLancet {
			rec.cold = true
			err = t.direct(tp)
		}
		if err == nil && r.kind == kindPlan {
			rec.phase, rec.cold = phaseVerify, true
			again := t.handler(h, r)
			if again.state != "hit" || !bytes.Equal(again.body, s.body) {
				err = fmt.Errorf("re-read served as %q, body identical %t", again.state, bytes.Equal(again.body, s.body))
			}
			rec.phase = phaseRun
			if len(runReqs) < probeKeys {
				runReqs, runBodies = append(runReqs, r), append(runBodies, bytes.Clone(s.body))
			}
		}
		if err != nil {
			fails.add(fmt.Errorf("request %d: %w", i, err))
		}
	}
	stats := svc.Stats()

	if !w.durable {
		rec.phase, rec.cold = phaseVerify, true
		if err := t.diskProbe(filepath.Join(dir, "probe"), runReqs, runBodies); err != nil {
			fails.add(fmt.Errorf("disk probe: %w", err))
		}
	}
	return traceResult{
		attempted: attempted,
		metrics:   t.perLayer(stats),
		stages:    stageBreakdown(rec.spans),
		spans:     rec.spans,
	}, nil
}

// traceAgainst runs the traced path on r and its direct passes, and
// checks the answer against a served response.
func (t *tracer) traceAgainst(r request, served *service.PlanResponse) error {
	tp, err := t.planPath(r)
	if err != nil {
		return err
	}
	if err := sameResult(&tp.resp, served); err != nil {
		return err
	}
	return t.direct(tp)
}

// diskProbe measures the durable tier on a memory-only workload's own
// plans: it writes them through a fresh disk store, restarts the service
// on it, and reads them back; every read must be a disk hit byte-identical
// to the memory-only service's body.
func (t *tracer) diskProbe(dir string, reqs []request, bodies [][]byte) error {
	svc, err := openService(true, dir, 0)
	if err != nil {
		return err
	}
	for _, r := range reqs {
		serve(svc.Handler(), r.body)
	}
	svc.Close()
	if svc, err = openService(true, dir, 0); err != nil {
		return err
	}
	defer svc.Close()
	for i, r := range reqs {
		s := t.handler(svc.Handler(), r)
		if s.state != "disk" || !bytes.Equal(s.body, bodies[i]) {
			return fmt.Errorf("restored read served as %q, body identical %t", s.state, bytes.Equal(s.body, bodies[i]))
		}
	}
	return nil
}

// spanCost measures what recording one span costs, with or without its
// allocation count.
func spanCost(allocs bool) time.Duration {
	const n = 200
	r := newRecorder()
	t0 := time.Now()
	for range n {
		r.end(r.begin("calibrate", allocs))
	}
	return time.Since(t0) / n
}

// perLayer assembles the per-layer metrics from the spans and samples.
func (t *tracer) perLayer(stats service.StatsResponse) map[string]metric {
	spans := t.rec.spans
	self := selfTimes(spans)
	durs := map[string][]float64{}
	allocs := map[string][]float64{}
	plainCost, countedCost := spanCost(false), spanCost(true)
	var rootSelf, rootDur, overhead time.Duration
	inRun := make([]bool, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			inRun[i] = inRun[s.Parent]
		} else {
			inRun[i] = s.Phase == phaseRun && s.Cold && s.Name == "plan"
		}
		if inRun[i] {
			if s.counted {
				overhead += countedCost
			} else {
				overhead += plainCost
			}
			if s.Parent < 0 {
				rootSelf += self[i]
				rootDur += s.dur()
			}
		}
		if !s.Cold || s.Phase == phaseWarmup {
			continue
		}
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
		if s.counted {
			allocs[s.Name] = append(allocs[s.Name], float64(s.Allocs))
		}
	}

	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	for _, tier := range []string{"hit", "disk", "miss"} {
		put("service."+tier+"_p50_ms", "ms", median(durs["service."+tier]))
	}
	put("service.encode_ms", "ms", median(durs["service.encode"]))
	put("service.hit_ratio", "fraction", stats.PlanTiers.CombinedHitRate)
	if stats.DiskStore != nil {
		put("service.disk_hits", "count", float64(stats.DiskStore.Hits))
		put("service.disk_writes", "count", float64(stats.DiskStore.Writes))
	} else {
		put("service.disk_hits", "count", 0)
		put("service.disk_writes", "count", 0)
	}
	put("service.computations", "count", float64(stats.Computations))
	put("service.deduplicated", "count", float64(stats.Deduplicated))
	put("service.session_hit_ratio", "fraction", ratio(stats.SessionStore.Hits, stats.SessionStore.Hits+stats.SessionStore.Misses))

	for _, stage := range []string{"model.build", "passes.plan", "baselines.tutel", "sim.simulate"} {
		put(stage+"_ms", "ms", median(durs[stage]))
		put(stage+"_allocs", "count", median(allocs[stage]))
	}
	put("model.graph_instrs", "count", median(t.samples["model.graph_instrs"]))
	put("moe.routing_profile_ms", "ms", median(durs["moe.routing_profile"]))
	put("lancet.predict_ms", "ms", median(durs["lancet.predict"]))

	for _, name := range []string{"dwsched.run_ms", "dwsched.overlap_ms", "partition.run_ms"} {
		put(name, "ms", median(t.samples[name]))
	}
	for _, name := range []string{"dwsched.run_allocs", "partition.run_allocs", "partition.dp_evaluations", "partition.pipelines"} {
		put(name, "count", median(t.samples[name]))
	}
	put("dwsched.samples", "count", float64(len(t.samples["dwsched.run_ms"])))
	put("partition.samples", "count", float64(len(t.samples["partition.run_ms"])))
	put("passes.direct_attempts", "count", float64(len(t.samples["partition.attempts"])))

	put("cost.hit_ratio", "fraction", ratio(t.costHits, t.costHits+t.costMisses))
	put("cost.misses", "count/req", float64(t.costMisses)/float64(max(t.coldPlans, 1)))
	put("cost.profiled_ops", "count/req", float64(t.costProfiled)/float64(max(t.coldPlans, 1)))

	put("runtime.mallocs_per_req", "count/req", mean(t.samples["runtime.mallocs_per_req"]))
	put("runtime.alloc_bytes_per_req", "B/req", mean(t.samples["runtime.alloc_bytes_per_req"]))
	put("runtime.gc_cycles", "1/req", mean(t.samples["runtime.gc_cycles"]))

	put("trace.unattributed_ratio", "fraction", ratio(int64(rootSelf), int64(rootDur)))
	put("trace.overhead_ratio", "fraction", ratio(int64(overhead), int64(rootDur)))
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// stageShare is one stage's share of the run's traced time.
type stageShare struct {
	Stage     string  `json:"stage"`
	MsPerReq  float64 `json:"ms_per_req"`
	Share     float64 `json:"share"`
	ColdCalls int     `json:"cold_calls"`
}

// stageBreakdown ranks the stages by self time per measured request. Each
// run-phase request has one root kind: a traced plan (the cold side of a
// computed request) or a store-tier read. A stage's time per request is
// its mean self time per cold root of each kind, weighted by that kind's
// share of the run's requests, so computed requests count once although
// only their cold side is traced. Handler-side misses are left out: their
// work is the traced plans'.
func stageBreakdown(spans []span) []stageShare {
	self := selfTimes(spans)
	rootOf := make([]int, len(spans))
	kindReqs := map[string]map[int]bool{} // root kind -> requests that have one
	coldRoots := map[string]int{}
	total := map[int]bool{}
	for i, s := range spans {
		if s.Parent >= 0 {
			rootOf[i] = rootOf[s.Parent]
			continue
		}
		rootOf[i] = i
		if s.Phase != phaseRun || s.Name == "passes.direct" {
			continue
		}
		kind := s.Name
		if kind == "service.miss" {
			kind = "plan"
		}
		if kindReqs[kind] == nil {
			kindReqs[kind] = map[int]bool{}
		}
		kindReqs[kind][s.Req] = true
		total[s.Req] = true
		if s.Cold && s.Name != "service.miss" {
			coldRoots[kind]++
		}
	}
	perStage := map[string]float64{}
	calls := map[string]int{}
	for i, s := range spans {
		root := spans[rootOf[i]]
		if root.Phase != phaseRun || !root.Cold || root.Name == "service.miss" || root.Name == "passes.direct" {
			continue
		}
		kind := root.Name
		weight := float64(len(kindReqs[kind])) / float64(len(total)) / float64(coldRoots[kind])
		perStage[s.Name] += ms(self[i]) * weight
		calls[s.Name]++
	}
	sum := 0.0
	for _, v := range perStage {
		sum += v
	}
	var out []stageShare
	for name, v := range perStage {
		out = append(out, stageShare{Stage: name, MsPerReq: v, Share: v / sum, ColdCalls: calls[name]})
	}
	slices.SortFunc(out, func(a, b stageShare) int { return cmp.Compare(b.MsPerReq, a.MsPerReq) })
	return out
}

// writeSpans writes the run's spans as one JSON document.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

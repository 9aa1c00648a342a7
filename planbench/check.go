package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"

	"lancet/internal/service"
)

// checkResponse validates one /v1/plan response against the request that
// produced it: status 200, a body that decodes strictly as PlanResponse,
// the requested framework and seed echoed back, finite non-negative
// numbers that are positive unless the plan is OOM, a comparison present
// exactly when one was asked for, and a speedup that is the two iteration
// times' ratio.
func checkResponse(r request, code int, body []byte) (*service.PlanResponse, error) {
	if code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", code, body)
	}
	var resp service.PlanResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("decode PlanResponse: %w", err)
	}
	if resp.Result == nil {
		return nil, fmt.Errorf("response has no result")
	}
	if resp.Request.Seed == nil || *resp.Request.Seed != *r.req.Seed {
		return nil, fmt.Errorf("echoed seed %v, sent %d", resp.Request.Seed, *r.req.Seed)
	}
	if resp.Result.Framework != r.req.Framework {
		return nil, fmt.Errorf("result framework %q, asked for %q", resp.Result.Framework, r.req.Framework)
	}
	if err := checkResult(resp.Result); err != nil {
		return nil, err
	}
	if wantBase := r.req.Baseline != service.BaselineNone; wantBase != (resp.Baseline != nil) {
		return nil, fmt.Errorf("baseline present %t, asked for %t", resp.Baseline != nil, wantBase)
	}
	if resp.Baseline == nil {
		return &resp, nil
	}
	if err := checkResult(resp.Baseline); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if !resp.Result.OOM && !resp.Baseline.OOM {
		if want := resp.Baseline.IterationMs / resp.Result.IterationMs; resp.SpeedupOverBaseline != want {
			return nil, fmt.Errorf("speedup %g, iteration times give %g", resp.SpeedupOverBaseline, want)
		}
	}
	return &resp, nil
}

// checkResult checks one framework's numbers.
func checkResult(r *service.Result) error {
	for _, f := range []struct {
		name     string
		v        float64
		positive bool
	}{
		{"iteration_ms", r.IterationMs, true},
		{"predicted_us", r.PredictedUs, true},
		{"a2a_ms", r.AllToAllMs, true},
		{"non_overlapped_comm_ms", r.NonOverlappedCommMs, false},
		{"overlap_ms", r.OverlapMs, false},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 || (f.positive && !r.OOM && f.v == 0) {
			return fmt.Errorf("%s %s = %g", r.Framework, f.name, f.v)
		}
	}
	return nil
}

// bodyLedger remembers the first body served for each request and checks
// that every repeat of it, from whichever tier, is byte-identical.
type bodyLedger struct {
	mu    sync.Mutex
	first map[string][]byte
}

func newBodyLedger() *bodyLedger { return &bodyLedger{first: make(map[string][]byte)} }

// check records body as the first response to key, or compares it with
// the recorded one.
func (l *bodyLedger) check(key string, body []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	first, ok := l.first[key]
	if !ok {
		l.first[key] = bytes.Clone(body)
		return nil
	}
	if !bytes.Equal(first, body) {
		return fmt.Errorf("repeat of %.120s differs from its first body", key)
	}
	return nil
}

// digest fingerprints an ordered list of response bodies, so two runs of
// one seed can be compared by eye.
func digest(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// planQuality is the paper's view of a set of Lancet responses with a
// Tutel comparison: the geometric means of the simulated iteration time and
// of the speedup, and the Lancet-to-Tutel ratio of summed non-overlapped
// communication.
type planQuality struct {
	iterationMs, speedup, nonOverlapRatio float64
}

func qualityOf(resps []*service.PlanResponse) (planQuality, error) {
	var iters, speedups []float64
	var lancetComm, tutelComm float64
	for _, r := range resps {
		if r.Baseline == nil || r.Result.OOM || r.Baseline.OOM {
			return planQuality{}, fmt.Errorf("quality set holds a plan without a comparison or an OOM plan (seed %d)", *r.Request.Seed)
		}
		iters = append(iters, r.Result.IterationMs)
		speedups = append(speedups, r.SpeedupOverBaseline)
		lancetComm += r.Result.NonOverlappedCommMs
		tutelComm += r.Baseline.NonOverlappedCommMs
	}
	if len(iters) == 0 || tutelComm == 0 {
		return planQuality{}, fmt.Errorf("quality set is empty")
	}
	return planQuality{geomean(iters), geomean(speedups), lancetComm / tutelComm}, nil
}

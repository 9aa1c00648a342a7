// Command lancet-load measures the serving layer under synthetic plan
// traffic — the "serves heavy traffic" claim, pinned by numbers instead of
// prose (DESIGN.md §14). It drives N plan requests with a Zipf-distributed
// key popularity (a few configurations are hot, a long tail is cold —
// the shape fleet traffic actually has) against an in-process service
// handler, and reports latency percentiles plus the per-tier cache hit
// breakdown as JSON.
//
// The request key space maps key i to a distinct simulation seed of one
// shared configuration, so every key lands on its own plan-store entry
// while the session pool stays hot — isolating what the harness measures:
// the plan store's two tiers, not session construction.
//
// Usage:
//
//	lancet-load -requests 1000000 -keys 512 -zipf 1.1 -store-dir /tmp/plans
//
// With -min-hit-rate the run doubles as a gate: it exits nonzero when the
// combined (memory + disk) hit rate falls below the bound, which is how CI
// pins the ">50% on a Zipf mix" acceptance claim.
//
// With -drift-updates the harness additionally exercises the /v1/routing
// drift loop (DESIGN.md §16): it streams that many gate-count updates whose
// Zipf exponent wanders out and back, forcing the traffic profile to drift
// away from the live plan and return, and reports the loop's counters.
// -min-replans gates on the background re-plans actually landing.
//
// Before driving any traffic the harness checks GET /v1/version and refuses
// a server whose API revision differs from what it was built against — a
// mismatched pair would measure (or mutate) the wrong wire surface.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"lancet/internal/netsim"
	"lancet/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lancet-load: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
}

// Report is the harness's JSON output: the load shape, wall-clock latency
// percentiles, and the service's own per-tier counters after the run.
type Report struct {
	Requests   int     `json:"requests"`
	Keys       int     `json:"keys"`
	Zipf       float64 `json:"zipf"`
	Parallel   int     `json:"parallel"`
	Errors     int64   `json:"errors"`
	DurationMs float64 `json:"duration_ms"`
	QPS        float64 `json:"qps"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MaxMs      float64 `json:"max_ms"`

	// DriftUpdates / DriftErrors cover the -drift-updates injection phase;
	// the loop's own counters land under Stats.Drift.
	DriftUpdates int   `json:"drift_updates,omitempty"`
	DriftErrors  int64 `json:"drift_errors,omitempty"`

	// WhatIfRequests / WhatIfErrors cover the -what-if-mix injection phase:
	// plan requests carrying node-loss scenarios (DESIGN.md §17).
	WhatIfRequests int   `json:"what_if_requests,omitempty"`
	WhatIfErrors   int64 `json:"what_if_errors,omitempty"`

	Stats service.StatsResponse `json:"stats"`
}

// run is the testable body of the command. The JSON report goes to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lancet-load", flag.ContinueOnError)
	var (
		requests   = fs.Int("requests", 1_000_000, "total plan requests to drive")
		keys       = fs.Int("keys", 512, "distinct plan configurations in the key space")
		zipfS      = fs.Float64("zipf", 1.1, "Zipf exponent of the key popularity distribution (> 1)")
		seed       = fs.Int64("seed", 1, "base seed for the request mix")
		parallel   = fs.Int("parallel", runtime.NumCPU(), "concurrent client workers")
		cacheSize  = fs.Int("cache-size", 256, "hot-tier plan-store capacity (entries)")
		storeDir   = fs.String("store-dir", "", "durable plan-store directory (empty = memory only)")
		minHitRate = fs.Float64("min-hit-rate", 0, "fail unless the combined cache hit rate reaches this")
		requireAPI = fs.Int("require-api", service.APIRevision,
			"refuse to drive a server whose /v1/version api_revision differs from this")
		driftUpdates = fs.Int("drift-updates", 0,
			"stream this many /v1/routing gate-count updates with a wandering Zipf exponent (0 disables the drift phase)")
		minReplans = fs.Int64("min-replans", 0,
			"fail unless the drift loop completed at least this many background re-plans")
		whatIfMix = fs.Int("what-if-mix", 0,
			"drive this many /v1/plan requests carrying node-loss what_if scenarios (0 disables the what-if phase)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *requests <= 0 || *keys <= 0 {
		return fmt.Errorf("requests and keys must be positive, got %d and %d", *requests, *keys)
	}
	if *zipfS <= 1 {
		return fmt.Errorf("zipf exponent must be > 1, got %g", *zipfS)
	}
	if *parallel <= 0 {
		*parallel = 1
	}

	cfg := service.Config{CacheSize: *cacheSize, Parallel: *parallel}
	var svc *service.Service
	if *storeDir != "" {
		var err error
		if svc, err = service.Open(cfg, *storeDir); err != nil {
			return err
		}
	} else {
		svc = service.New(cfg)
	}
	handler := svc.Handler()
	if err := checkVersion(handler, *requireAPI); err != nil {
		return err
	}

	// Key i is the cheapest distinct plan-store entry: the RAF baseline
	// (no partition DP) with no comparison plan, simulated under seed i.
	bodies := make([]string, *keys)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"framework": "raf", "baseline": "none", "seed": %d}`, i)
	}

	latencies := make([][]float64, *parallel)
	var errCount int64
	var errMu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *parallel; w++ {
		share := *requests / *parallel
		if w < *requests%*parallel {
			share++
		}
		wg.Add(1)
		go func(w, share int) {
			defer wg.Done()
			// Per-worker generators keep the mix deterministic in (seed,
			// parallel) without cross-worker contention.
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			zipf := rand.NewZipf(rng, *zipfS, 1, uint64(*keys-1))
			lat := make([]float64, 0, share)
			errs := int64(0)
			for i := 0; i < share; i++ {
				body := bodies[zipf.Uint64()]
				req, err := http.NewRequest(http.MethodPost, "http://lancet-load/v1/plan", strings.NewReader(body))
				if err != nil {
					errs++
					continue
				}
				rec := &nullResponseWriter{}
				t0 := time.Now()
				handler.ServeHTTP(rec, req)
				lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
				if rec.code != http.StatusOK {
					errs++
				}
			}
			latencies[w] = lat
			errMu.Lock()
			errCount += errs
			errMu.Unlock()
		}(w, share)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var driftErrs int64
	if *driftUpdates > 0 {
		driftErrs = injectDrift(handler, *driftUpdates)
	}
	var whatIfErrs int64
	if *whatIfMix > 0 {
		whatIfErrs = injectWhatIf(handler, *whatIfMix)
	}
	// Closing drains the background re-plan queue, so the drift counters in
	// the report are final, not a snapshot racing the worker.
	svc.Close()

	all := make([]float64, 0, *requests)
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Float64s(all)
	rep := Report{
		Requests:       *requests,
		Keys:           *keys,
		Zipf:           *zipfS,
		Parallel:       *parallel,
		Errors:         errCount,
		DurationMs:     float64(elapsed.Nanoseconds()) / 1e6,
		P50Ms:          percentile(all, 0.50),
		P90Ms:          percentile(all, 0.90),
		P99Ms:          percentile(all, 0.99),
		DriftUpdates:   *driftUpdates,
		DriftErrors:    driftErrs,
		WhatIfRequests: *whatIfMix,
		WhatIfErrors:   whatIfErrs,
		Stats:          svc.Stats(),
	}
	if len(all) > 0 {
		rep.MaxMs = all[len(all)-1]
	}
	if elapsed > 0 {
		rep.QPS = float64(len(all)) / elapsed.Seconds()
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if errCount > 0 {
		return fmt.Errorf("%d of %d requests failed", errCount, *requests)
	}
	if driftErrs > 0 {
		return fmt.Errorf("%d of %d drift updates failed", driftErrs, *driftUpdates)
	}
	if whatIfErrs > 0 {
		return fmt.Errorf("%d of %d what-if requests failed", whatIfErrs, *whatIfMix)
	}
	if hr := rep.Stats.PlanTiers.CombinedHitRate; hr < *minHitRate {
		return fmt.Errorf("combined cache hit rate %.3f below required %.3f", hr, *minHitRate)
	}
	if rep.Stats.Drift.Replans < *minReplans {
		return fmt.Errorf("drift loop completed %d re-plans, required %d", rep.Stats.Drift.Replans, *minReplans)
	}
	return nil
}

// checkVersion refuses servers speaking a different API revision: the
// harness's request bodies and counter names are only meaningful against
// the surface it was built for.
func checkVersion(h http.Handler, want int) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "http://lancet-load/v1/version", nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET /v1/version returned %d; refusing to drive an unversioned server", rec.Code)
	}
	var v service.VersionResponse
	if err := json.NewDecoder(rec.Body).Decode(&v); err != nil {
		return fmt.Errorf("bad /v1/version body: %w", err)
	}
	if v.APIRevision != want {
		return fmt.Errorf("server speaks API revision %d, this harness requires %d; refusing to drive it",
			v.APIRevision, want)
	}
	return nil
}

// injectDrift streams n /v1/routing updates for one drift session. The
// traffic's Zipf exponent walks 0 -> 1.6 -> 0 across the run — out into a
// skewed regime and back — so with re-planning enabled the loop must
// detect the drift and swap plans in the background. Updates go in
// sequentially (the stream of one training job); the count of failed
// updates is returned.
func injectDrift(h http.Handler, n int) int64 {
	const devices = 16
	errs := int64(0)
	for i := 0; i < n; i++ {
		frac := 0.0
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		alpha := 1.6 * (1 - math.Abs(2*frac-1))
		update := service.RoutingUpdate{
			Plan:   service.PlanRequest{Framework: "raf", Baseline: service.BaselineNone},
			Counts: netsim.ZipfProfile(devices, alpha).Counts(),
		}
		body, err := json.Marshal(update)
		if err != nil {
			errs++
			continue
		}
		req, err := http.NewRequest(http.MethodPost, "http://lancet-load/v1/routing", strings.NewReader(string(body)))
		if err != nil {
			errs++
			continue
		}
		rec := &nullResponseWriter{}
		h.ServeHTTP(rec, req)
		if rec.code != http.StatusOK {
			errs++
		}
	}
	return errs
}

// injectWhatIf drives n /v1/plan requests carrying node-loss what_if
// scenarios against the default configuration, alternating between two
// lost-node sets: the first request per set pays the full scenario (base
// plan, degraded replay and re-plan), the rest must come back
// byte-identical from the plan store — the what-if path's cacheability
// claim (DESIGN.md §17). Returns the count of non-200 responses.
func injectWhatIf(h http.Handler, n int) int64 {
	errs := int64(0)
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"framework": "lancet", "baseline": "none", "what_if": {"lost_nodes": [%d]}}`, i%2)
		req, err := http.NewRequest(http.MethodPost, "http://lancet-load/v1/plan", strings.NewReader(body))
		if err != nil {
			errs++
			continue
		}
		rec := &nullResponseWriter{}
		h.ServeHTTP(rec, req)
		if rec.code != http.StatusOK {
			errs++
		}
	}
	return errs
}

// percentile reads the p-quantile (0..1) off a sorted sample via the
// nearest-rank method.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// nullResponseWriter records the status code and discards the body — the
// harness reads outcomes from the service's own counters, so buffering a
// million response bodies would only measure the buffer.
type nullResponseWriter struct {
	hdr  http.Header
	code int
}

func (w *nullResponseWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = make(http.Header)
	}
	return w.hdr
}

func (w *nullResponseWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(b), nil
}

func (w *nullResponseWriter) WriteHeader(code int) { w.code = code }

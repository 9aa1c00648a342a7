package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"

	"lancet/internal/service"
)

// served is one handler call's outcome.
type served struct {
	code  int
	state string // X-Lancet-Cache: hit, disk, shared or miss
	body  []byte
	lat   time.Duration
}

// serve posts body to /v1/plan in-process and times the handler alone.
func serve(h http.Handler, body []byte) served {
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	lat := time.Since(t0)
	return served{code: rec.Code, state: rec.Header().Get("X-Lancet-Cache"), body: rec.Body.Bytes(), lat: lat}
}

// wantStates lists the cache tiers each request kind may be served from: a
// plan or write is new, so it is computed; a read names a pre-populated
// key, so a store tier, or a concurrent read of the same key, must answer
// it.
var wantStates = map[string][]string{
	kindPlan:  {"miss"},
	kindWrite: {"miss"},
	kindRead:  {"hit", "disk", "shared"},
}

// verify checks one served request: the tier it came from, and either
// its response (plans and writes) or, for reads, its byte identity with
// the checked body that populated the key. A read returns no decoded
// response: decoding every cheap read would measure the checker, not the
// service.
func verify(r request, s served, ledger *bodyLedger) (*service.PlanResponse, error) {
	if s.code == http.StatusOK && !slices.Contains(wantStates[r.kind], s.state) {
		return nil, fmt.Errorf("%s request served as %q", r.kind, s.state)
	}
	if r.kind == kindRead {
		if s.code != http.StatusOK {
			return nil, fmt.Errorf("status %d: %.200s", s.code, s.body)
		}
		return nil, ledger.check(string(r.body), s.body)
	}
	return checkResponse(r, s.code, s.body)
}

// failures tallies failed requests and keeps the first few messages.
type failures struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

func (f *failures) add(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.msgs) < 5 {
		f.msgs = append(f.msgs, err.Error())
	}
}

// openService builds a service: memory-only, or over the durable store in
// dir.
func openService(durable bool, dir string, cacheSize int) (*service.Service, error) {
	cfg := service.Config{CacheSize: cacheSize}
	if !durable {
		return service.New(cfg), nil
	}
	return service.Open(cfg, dir)
}

// populate computes the serve_zipf key space into the durable store in dir
// with the given number of clients, checks every response, and records the
// bodies in ledger. It returns the decoded responses in key order.
func populate(w workload, seed int64, dir string, clients int, ledger *bodyLedger, fails *failures) ([]*service.PlanResponse, error) {
	keys := w.keys(seed)
	svc, err := openService(true, dir, 2*len(keys))
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	h := svc.Handler()
	resps := make([]*service.PlanResponse, len(keys))
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= len(keys) {
					return
				}
				r := newRequest(kindPlan, keys[k])
				s := serve(h, r.body)
				resp, err := verify(r, s, ledger)
				if err != nil {
					fails.add(fmt.Errorf("populate key %d: %w", k, err))
					continue
				}
				if err := ledger.check(string(r.body), s.body); err != nil {
					fails.add(err)
				}
				resps[k] = resp
			}
		}()
	}
	wg.Wait()
	return resps, nil
}

// setup builds the measured service and runs set-up repetition rep's
// warm-up through it, timing both.
func setup(w workload, seed int64, dir string, rep int, fails *failures) (*service.Service, time.Duration, error) {
	t0 := time.Now()
	svc, err := openService(w.durable, dir, w.cacheSize)
	if err != nil {
		return nil, 0, err
	}
	h := svc.Handler()
	for _, pr := range w.warmup(seed, rep) {
		kind := kindPlan
		if pr.Baseline == service.BaselineNone {
			kind = kindWrite
		}
		r := newRequest(kind, pr)
		if _, err := verify(r, serve(h, r.body), nil); err != nil {
			fails.add(fmt.Errorf("warm-up: %w", err))
		}
	}
	return svc, time.Since(t0), nil
}

// loadResult is what one closed-loop run measured.
type loadResult struct {
	attempted int
	latMs     []float64
	window    time.Duration
	// quality holds the decoded responses of the first quality requests,
	// bodies their raw bytes, both in request order.
	quality []*service.PlanResponse
	bodies  [][]byte
}

// drive runs a closed loop of clients against h: each client sends its
// next request only when the previous one has returned. Requests are
// claimed in stream order, and clients stop claiming once d has passed and
// at least quality requests were claimed, so the first quality requests
// always complete.
func drive(h http.Handler, st stream, clients int, d time.Duration, quality int, ledger *bodyLedger, fails *failures) loadResult {
	res := loadResult{
		quality: make([]*service.PlanResponse, quality),
		bodies:  make([][]byte, quality),
	}
	var mu sync.Mutex
	n := 0
	start := time.Now()
	deadline := start.Add(d)
	claim := func() (int, request, bool) {
		mu.Lock()
		defer mu.Unlock()
		if n >= quality && time.Now().After(deadline) {
			return 0, request{}, false
		}
		n++
		return n - 1, st.next(), true
	}
	lats := make([][]float64, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, r, ok := claim()
				if !ok {
					return
				}
				s := serve(h, r.body)
				lats[c] = append(lats[c], float64(s.lat.Nanoseconds())/1e6)
				resp, err := verify(r, s, ledger)
				if err != nil {
					fails.add(fmt.Errorf("request %d: %w", i, err))
					continue
				}
				if i < quality {
					res.quality[i], res.bodies[i] = resp, s.body
				}
			}
		}()
	}
	wg.Wait()
	res.window = time.Since(start)
	res.attempted = n
	for _, l := range lats {
		res.latMs = append(res.latMs, l...)
	}
	return res
}

package main

import (
	"cmp"
	"runtime"
	"slices"
	"time"
)

// Trace phases. Per-layer medians read spans of the run and of the
// serve_zipf key-space sample taken in set-up; the stage breakdown and the
// coverage ratios read the run alone. Warm-up and verification spans are
// kept in the file but feed no statistic except the tier latencies that
// verification re-reads provide.
const (
	phaseWarmup = "warmup"
	phaseSetup  = "setup"
	phaseRun    = "run"
	phaseVerify = "verify"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the enclosing span's index, -1 for a root. Cold marks the
// side of a request that ran first and so paid for any process-wide memo
// it filled; only cold spans feed the per-layer statistics.
type span struct {
	Name    string        `json:"name"`
	Req     int           `json:"req"`
	Parent  int           `json:"parent"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	Allocs  int64         `json:"allocs,omitempty"`
	Cold    bool          `json:"cold"`
	Phase   string        `json:"phase"`
	counted bool          // Allocs was measured
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory for writing out once at the end. It is
// used from one goroutine.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int // indexes of the spans begun and not yet ended
	// req, cold and phase label the spans begun next.
	req   int
	cold  bool
	phase string
	ms    runtime.MemStats
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), phase: phaseRun} }

// begin opens a span under the innermost open one. With allocs it also
// counts the heap allocations made until end.
func (r *recorder) begin(name string, allocs bool) int {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	s := span{Name: name, Req: r.req, Parent: parent, Cold: r.cold, Phase: r.phase, counted: allocs}
	if allocs {
		runtime.ReadMemStats(&r.ms)
		s.Allocs = -int64(r.ms.Mallocs)
	}
	s.Start = time.Since(r.epoch)
	r.spans = append(r.spans, s)
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes span id, which must be the innermost open one.
func (r *recorder) end(id int) {
	now := time.Since(r.epoch)
	s := &r.spans[id]
	s.End = now
	if s.counted {
		runtime.ReadMemStats(&r.ms)
		s.Allocs += int64(r.ms.Mallocs)
	}
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children's intervals cover. Overlapping children
// count once.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
		covered := time.Duration(0)
		cur := iv{-1, -1}
		for _, v := range ivs {
			if v.lo > cur.hi {
				covered += cur.hi - cur.lo
				cur = v
				continue
			}
			cur.hi = max(cur.hi, v.hi)
		}
		covered += cur.hi - cur.lo
		self[i] = s.dur() - covered
	}
	return self
}

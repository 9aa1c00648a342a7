package main

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"lancet/internal/service"
)

func firstBodies(w workload, seed int64, n int) [][]byte {
	st := w.stream(seed)
	out := make([][]byte, n)
	for i := range out {
		out[i] = st.next().body
	}
	return out
}

func TestGeneratorsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			const n = 200
			a, b := firstBodies(w, 1, n), firstBodies(w, 1, n)
			if !slices.EqualFunc(a, b, bytes.Equal) {
				t.Fatal("one seed gave two request sequences")
			}
			if slices.EqualFunc(a, firstBodies(w, 2, n), bytes.Equal) {
				t.Fatal("two seeds gave one request sequence")
			}
		})
	}
}

func TestComputedRequestsAreDistinct(t *testing.T) {
	for _, w := range workloads {
		st := w.stream(7)
		seen := map[string]bool{}
		for i := range 2000 {
			r := st.next()
			if r.kind == kindRead {
				continue
			}
			if seen[string(r.body)] {
				t.Fatalf("%s: request %d repeats a computed request: %s", w.name, i, r.body)
			}
			seen[string(r.body)] = true
		}
	}
}

func TestBlockStreamStratifiesEachGroup(t *testing.T) {
	grid := skewedGrid()
	st := newBlockStream(3, grid, drawRouting)
	draws := map[string][]float64{} // stratum -> its draws over one group
	for range drawGroup {
		count := map[string]int{}
		for range grid {
			r := st.next().req
			u := (r.Routing.HotShare - 0.15) / 0.45
			if r.Routing.Kind == "zipf" {
				u = r.Routing.Alpha - 0.5
			}
			r.Routing, r.Seed = &service.RoutingSpec{Kind: r.Routing.Kind}, nil
			key := string(newRequest(kindPlan, r).body)
			count[key]++
			draws[key] = append(draws[key], u)
		}
		if len(count) != len(grid) {
			t.Fatalf("a block holds %d of the %d strata", len(count), len(grid))
		}
	}
	for key, us := range draws {
		slices.Sort(us)
		for i, u := range us {
			if lo := float64(i) / drawGroup; u < lo-1e-9 || u >= lo+1.0/drawGroup {
				t.Fatalf("stratum %s: draw %g is outside its Latin-hypercube bin %d", key, u, i)
			}
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}, {0.1, 1}, {0.11, 2},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of an empty sample is not 0")
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of four = %g, want the lower middle 2", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1, 4, 16) = %g, want 4", got)
	}
	if got := geomean([]float64{2}); math.Abs(got-2) > 1e-12 {
		t.Errorf("geomean(2) = %g, want 2", got)
	}
	if geomean(nil) != 0 {
		t.Error("geomean of an empty sample is not 0")
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{Name: "root", Parent: -1, Start: ms(0), End: ms(10)},
		{Name: "a", Parent: 0, Start: ms(1), End: ms(3)},
		{Name: "b", Parent: 0, Start: ms(2), End: ms(5)},  // overlaps a
		{Name: "c", Parent: 0, Start: ms(8), End: ms(12)}, // runs past the root
		{Name: "d", Parent: 2, Start: ms(3), End: ms(4)},
		{Name: "other", Parent: -1, Start: ms(20), End: ms(21)},
	}
	want := []time.Duration{ms(4), ms(2), ms(2), ms(4), ms(1), ms(1)}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", false)
	child := r.begin("child", true)
	r.end(child)
	r.end(root)
	if r.spans[child].Parent != root || r.spans[root].Parent != -1 {
		t.Fatalf("parents %d, %d", r.spans[root].Parent, r.spans[child].Parent)
	}
	if s := r.spans[child]; s.End < s.Start || s.Start < r.spans[root].Start || s.End > r.spans[root].End {
		t.Fatal("child span is not inside its parent")
	}
}

func TestLedgerCatchesATamperedRepeat(t *testing.T) {
	l := newBodyLedger()
	body := []byte(`{"result": {"iteration_ms": 12.5}}`)
	if err := l.check("k", body); err != nil {
		t.Fatal(err)
	}
	if err := l.check("k", bytes.Clone(body)); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}
	tampered := bytes.Replace(body, []byte("12.5"), []byte("12.6"), 1)
	if err := l.check("k", tampered); err == nil {
		t.Fatal("tampered repeat accepted")
	}
	if err := l.check("other", tampered); err != nil {
		t.Fatalf("first body of another key rejected: %v", err)
	}
}

func TestVerifyRejectsATamperedRead(t *testing.T) {
	w, _ := workloadByName("serve_zipf")
	st := w.stream(1)
	r := st.next()
	for r.kind != kindRead {
		r = st.next()
	}
	l := newBodyLedger()
	good := []byte(`{"first": true}`)
	if err := l.check(string(r.body), good); err != nil {
		t.Fatal(err)
	}
	if _, err := verify(r, served{code: 200, state: "disk", body: good}, l); err != nil {
		t.Fatalf("identical read rejected: %v", err)
	}
	if _, err := verify(r, served{code: 200, state: "disk", body: []byte(`{"first": false}`)}, l); err == nil {
		t.Fatal("tampered read accepted")
	}
	if _, err := verify(r, served{code: 200, state: "miss", body: good}, l); err == nil {
		t.Fatal("read of a pre-populated key served as a miss accepted")
	}
}

package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// sweep_stream_test.go pins /v1/sweep's NDJSON streaming mode and that a
// sweep's grid points are exactly the plans /v1/plan serves.

func postSweep(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// decodeStream parses an NDJSON sweep response into grid order, failing on
// duplicate or missing indexes.
func decodeStream(t *testing.T, body *bytes.Buffer, want int) []SweepItem {
	t.Helper()
	type streamItem struct {
		Index int `json:"index"`
		SweepItem
	}
	items := make([]SweepItem, want)
	seen := make([]bool, want)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var it streamItem
		if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
			t.Fatalf("stream line %d is not JSON: %v\n%s", lines, err, sc.Bytes())
		}
		if it.Index < 0 || it.Index >= want {
			t.Fatalf("stream line carries index %d outside [0, %d)", it.Index, want)
		}
		if seen[it.Index] {
			t.Fatalf("index %d streamed twice", it.Index)
		}
		seen[it.Index] = true
		items[it.Index] = it.SweepItem
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != want {
		t.Fatalf("stream carried %d lines, want %d", lines, want)
	}
	return items
}

func TestSweepStreamMatchesBufferedResults(t *testing.T) {
	grid := `"frameworks": ["raf", "deepspeed"], "gpus": [16, 12]`
	buffered := postSweep(t, New(Config{Parallel: 4}).Handler(), `{`+grid+`}`)
	if buffered.Code != http.StatusOK {
		t.Fatalf("buffered status = %d, body %s", buffered.Code, buffered.Body)
	}
	var bresp SweepResponse
	if err := json.NewDecoder(buffered.Body).Decode(&bresp); err != nil {
		t.Fatal(err)
	}

	streamed := postSweep(t, New(Config{Parallel: 4}).Handler(), `{`+grid+`, "stream": true}`)
	if streamed.Code != http.StatusOK {
		t.Fatalf("stream status = %d, body %s", streamed.Code, streamed.Body)
	}
	if ct := streamed.Header().Get("Content-Type"); !strings.Contains(ct, "application/x-ndjson") {
		t.Errorf("stream content type = %q, want NDJSON", ct)
	}
	if !streamed.Flushed {
		t.Error("stream never flushed; clients would buffer until EOF")
	}
	items := decodeStream(t, streamed.Body, bresp.Count)
	// Same grid, same outcomes: every point's result and error must match
	// the buffered response once re-ordered by index.
	for i := range items {
		want, _ := json.Marshal(bresp.Results[i])
		got, _ := json.Marshal(items[i])
		if !bytes.Equal(want, got) {
			t.Errorf("point %d: streamed %s, buffered %s", i, got, want)
		}
	}
}

func TestSweepCapErrorPointsAtStreaming(t *testing.T) {
	// 1080 points: over the buffered cap, well under the streaming backstop.
	body := `{"models": ["gpt2-s", "gpt2-l", "vit-s"], "clusters": ["V100", "A100"],
		"gpus": [8, 16, 24, 32, 48, 64],
		"gates": ["switch", "top2", "bpr", "random", "hash", "ec"],
		"frameworks": ["deepspeed", "raf", "tutel", "fastermoe", "lancet"]}`
	w := postSweep(t, New(Config{}).Handler(), body)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", w.Code)
	}
	msg := decodeError(t, w)
	if !strings.Contains(msg, `"stream": true`) {
		t.Errorf("cap error %q should point at the streaming alternative", msg)
	}
}

// oversizedGrid builds a sweep body whose cross product exceeds the buffered
// cap using instantly rejected grid points (odd multi-node GPU counts are
// invalid on every cluster), so the streaming path over it costs
// microseconds per point.
func oversizedGrid(stream bool) string {
	gpus := make([]string, maxSweepPoints+1)
	for i := range gpus {
		gpus[i] = fmt.Sprint(2*i + 9)
	}
	return fmt.Sprintf(`{"frameworks": ["raf"], "gpus": [%s], "stream": %v}`,
		strings.Join(gpus, ", "), stream)
}

func TestSweepStreamLiftsBufferedCap(t *testing.T) {
	// The same grid: rejected buffered, streamed in full.
	w := postSweep(t, New(Config{Parallel: 4}).Handler(), oversizedGrid(false))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("buffered status = %d, want 400", w.Code)
	}
	w = postSweep(t, New(Config{Parallel: 4}).Handler(), oversizedGrid(true))
	if w.Code != http.StatusOK {
		t.Fatalf("stream status = %d, body %.200s", w.Code, w.Body)
	}
	items := decodeStream(t, w.Body, maxSweepPoints+1)
	for i, it := range items {
		if it.Err == "" {
			t.Fatalf("point %d (odd GPU count) should carry an error", i)
		}
	}
}

// TestSweepThenPlanMatchesFreshService pins that a sweep leaves nothing in
// the plan store a later /v1/plan could observe: every point's plan body,
// served from the store the sweep filled, is byte-identical to a fresh
// service's computation of the same request.
func TestSweepThenPlanMatchesFreshService(t *testing.T) {
	gpus := []int{8, 16, 32, 64}
	h := New(Config{Parallel: 2}).Handler()
	sw := postSweep(t, h, `{"models":["gpt2-s"],"clusters":["V100"],"gpus":[8,16,32,64],`+
		`"gates":["switch"],"frameworks":["lancet"],"batch":24}`)
	if sw.Code != http.StatusOK {
		t.Fatalf("sweep status = %d, body %.300s", sw.Code, sw.Body)
	}
	for _, g := range gpus {
		body := fmt.Sprintf(`{"model":"gpt2-s","cluster":"V100","gpus":%d,"gate":"switch",`+
			`"framework":"lancet","batch":24,"baseline":"none"}`, g)
		after := postPlan(t, h, body)
		fresh := postPlan(t, New(Config{}).Handler(), body)
		if after.Code != http.StatusOK || fresh.Code != http.StatusOK {
			t.Fatalf("gpus %d: status %d after sweep, %d fresh", g, after.Code, fresh.Code)
		}
		if !bytes.Equal(after.Body.Bytes(), fresh.Body.Bytes()) {
			t.Errorf("gpus %d: plan after sweep (cache %s) differs from a fresh service:\nafter: %.400s\nfresh: %.400s",
				g, after.Header().Get("X-Lancet-Cache"), after.Body, fresh.Body)
		}
	}
}

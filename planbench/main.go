// Command planbench is the repository's end-to-end benchmark of the
// planning service. It drives service.Handler in-process with generated
// /v1/plan bodies on one of three workloads, checks every response, and
// prints the metrics as one JSON object on its last line of output.
//
//	planbench --workload plan_cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it runs a closed loop of as many clients as there are
// CPUs and reports the end-to-end metrics; with --trace 1 it sends the
// same requests from one client, answers each computed one a second time
// through a traced path that calls the library's layers directly, and
// reports per-layer metrics. See README.md for the workloads and the
// predictions that tie the two sets of metrics together.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"lancet/internal/service"
)

// setupReps is how many times a run sets up its service; setup_s is the
// median.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envRecord describes the machine and build a run measured.
type envRecord struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

// report is the line before the result: what ran, on what, and the
// evidence a reader needs to compare two runs.
type report struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Trace    bool         `json:"trace"`
	Env      envRecord    `json:"env"`
	Digest   string       `json:"digest,omitempty"`
	Stages   []stageShare `json:"stages,omitempty"`
	Spans    string       `json:"spans,omitempty"`
	Errors   []string     `json:"errors,omitempty"`
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "planbench:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

// run parses the flags, runs one workload and writes the report and the
// result. It returns the exit code: 0 when every check passed, 1 when a
// request failed, 2 when the run could not be made.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("planbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: plan_cold, plan_skewed or serve_zipf")
	seed := fs.Int64("seed", 1, "seed the workload's requests are generated from (0 to 2^39)")
	seconds := fs.Int("seconds", 10, "how long the measured window lasts")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return 2, err
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 || *seed < 0 || *seed >= 1<<39 {
		return 2, errors.New("need --seconds > 0, --trace 0 or 1 and 0 <= --seed < 2^39")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return 2, err
	}
	dir, err := os.MkdirTemp(".bench_build", "planbench-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(dir)

	d := time.Duration(*seconds) * time.Second
	rep := report{Workload: w.name, Seed: *seed, Trace: *trace == 1, Env: environment()}
	fails := &failures{}
	var res result
	if *trace == 1 {
		tr, err := traceRun(w, *seed, d, dir, fails)
		if err != nil {
			return 2, err
		}
		rep.Stages = tr.stages
		rep.Spans = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err := writeSpans(rep.Spans, tr.spans); err != nil {
			return 2, err
		}
		res = result{Attempted: tr.attempted, Metrics: tr.metrics}
	} else {
		lr, err := loadRun(w, *seed, d, dir, fails)
		if err != nil {
			return 2, err
		}
		rep.Digest = lr.digest
		res = result{Attempted: lr.attempted, Metrics: lr.metrics}
	}
	res.Failed = fails.n
	res.Correct = fails.n == 0
	rep.Errors = fails.msgs

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep); err != nil {
		return 2, err
	}
	if err := enc.Encode(res); err != nil {
		return 2, err
	}
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d requests failed: %s", res.Failed, res.Attempted, strings.Join(rep.Errors, "; "))
	}
	return 0, nil
}

// loadOutcome is what the end-to-end run reports.
type loadOutcome struct {
	attempted int
	digest    string
	metrics   map[string]metric
}

// loadRun is the end-to-end run: untimed input preparation (serve_zipf's
// key space), setupReps timed set-ups of which the last one's service is
// measured, the closed loop, and the metrics.
func loadRun(w workload, seed int64, d time.Duration, dir string, fails *failures) (loadOutcome, error) {
	clients := runtime.NumCPU()
	ledger := newBodyLedger()
	var keySpace []*service.PlanResponse
	if w.durable {
		var err error
		if keySpace, err = populate(w, seed, dir, clients, ledger, fails); err != nil {
			return loadOutcome{}, err
		}
	}
	var setups []float64
	var svc *service.Service
	for rep := range setupReps {
		if svc != nil {
			svc.Close()
		}
		var took time.Duration
		var err error
		if svc, took, err = setup(w, seed, dir, rep, fails); err != nil {
			return loadOutcome{}, err
		}
		setups = append(setups, took.Seconds())
	}
	lr := drive(svc.Handler(), w.stream(seed), clients, d, w.quality, ledger, fails)
	svc.Close()

	out := loadOutcome{attempted: lr.attempted + len(keySpace)}
	qualitySet, bodies := lr.quality, lr.bodies
	if w.durable {
		qualitySet = keySpace
		bodies = nil
		for _, r := range w.keys(seed) {
			bodies = append(bodies, ledger.first[string(newRequest(kindRead, r).body)])
		}
	}
	out.digest = digest(bodies)
	var q planQuality
	if fails.n == 0 {
		var err error
		if q, err = qualityOf(qualitySet); err != nil {
			fails.add(err)
		}
	}
	out.metrics = map[string]metric{
		"setup_s":                  {median(setups), "s"},
		"latency_p50_ms":           {percentile(lr.latMs, 0.50), "ms"},
		"latency_p90_ms":           {percentile(lr.latMs, 0.90), "ms"},
		"throughput_rps":           {float64(len(lr.latMs)) / lr.window.Seconds(), "req/s"},
		"success_ratio":            {1 - float64(fails.n)/float64(max(out.attempted, 1)), "fraction"},
		"peak_rss_mb":              {peakRSSMiB(), "MiB"},
		"sim_iteration_ms_geomean": {q.iterationMs, "ms"},
		"speedup_vs_tutel_geomean": {q.speedup, "x"},
		"nonoverlap_comm_ratio":    {q.nonOverlapRatio, "fraction"},
	}
	return out, nil
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// environment records the machine and the build: CPU count, GOMAXPROCS,
// Go version, CPU model and, in a git checkout, the commit.
func environment() envRecord {
	env := envRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	return env
}

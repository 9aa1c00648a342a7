package lancet

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lancet/internal/netsim"
)

// TestWorkloadProfile pins the streamed-workload contract the drift loop
// depends on (DESIGN.md §16): a profile set on the session replaces the
// parametric gate proxy end to end, capacity clips it, and a profile shaped
// for another device count is rejected at the first plan or profile.
func TestWorkloadProfile(t *testing.T) {
	s, err := NewSession(GPT2SMoE(0), MustCluster("V100", 16))
	if err != nil {
		t.Fatal(err)
	}
	wp := netsim.ZipfProfile(16, 1.4)
	s.WorkloadProfile = wp
	// RoutingProfile reports the delivered shape: capacity clips the Zipf
	// profile's over-subscribed destinations, so the hottest device's
	// ingress share ends at the capacity ceiling, below the raw profile's.
	got, err := s.RoutingProfile()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("streamed workload reported a nil routing profile")
	}
	if raw, del := wp.MaxIngressShare(), got.MaxIngressShare(); del >= raw {
		t.Errorf("delivered hot share %.3f not clipped below offered %.3f", del, raw)
	}

	// The streamed workload plans and replays end to end, and the replayed
	// skew shows up as irregular all-to-all time exactly like a parametric
	// skewed workload's does.
	plan, err := s.Lancet(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := plan.MustSimulate(1)
	if rep.IterationMs <= 0 {
		t.Errorf("streamed-workload iteration = %v ms", rep.IterationMs)
	}
	if rep.IrregularA2AMs <= 0 {
		t.Error("streamed workload produced no irregular all-to-all time")
	}

	bad, err := NewSession(GPT2SMoE(0), MustCluster("V100", 16))
	if err != nil {
		t.Fatal(err)
	}
	bad.WorkloadProfile = netsim.ZipfProfile(8, 1.4)
	if _, err := bad.RoutingProfile(); err == nil {
		t.Error("profile shaped for 8 devices accepted on a 16-GPU cluster")
	}
	if _, err := bad.Lancet(Options{}); err == nil {
		t.Error("Lancet planned a profile shaped for 8 devices on a 16-GPU cluster")
	}
}

// TestWorkloadFieldsExclusive: a session's workload is said one way. Setting
// more than one of WorkloadSkew, WorkloadHotExpert and WorkloadProfile is
// rejected by every plan and profile entry point, and any single one (or
// none) is accepted.
func TestWorkloadFieldsExclusive(t *testing.T) {
	cases := []struct {
		name      string
		skew, hot float64
		profile   bool
		wantErr   bool
	}{
		{"balanced", 0, 0, false, false},
		{"skew", 1.2, 0, false, false},
		{"hot", 0, 0.4, false, false},
		{"profile", 0, 0, true, false},
		{"skew+hot", 1.2, 0.4, false, true},
		{"skew+profile", 1.2, 0, true, true},
		{"hot+profile", 0, 0.4, true, true},
		{"all three", 1.2, 0.4, true, true},
	}
	entries := []struct {
		name string
		call func(*Session) error
	}{
		{"Lancet", func(s *Session) error { _, err := s.Lancet(Options{}); return err }},
		{"Baseline", func(s *Session) error { _, err := s.Baseline(FrameworkRAF); return err }},
		{"RoutingProfile", func(s *Session) error { _, err := s.RoutingProfile(); return err }},
	}
	for _, c := range cases {
		for _, e := range entries {
			s, err := NewSession(GPT2SMoE(0), MustCluster("V100", 8))
			if err != nil {
				t.Fatal(err)
			}
			s.WorkloadSkew, s.WorkloadHotExpert = c.skew, c.hot
			if c.profile {
				s.WorkloadProfile = netsim.HotExpertProfile(8, 0.5)
			}
			err = e.call(s)
			if c.wantErr != (err != nil) {
				t.Errorf("%s via %s: err = %v, want error %t", c.name, e.name, err, c.wantErr)
			}
			if err != nil && !strings.Contains(err.Error(), "at most one") {
				t.Errorf("%s via %s: error %q does not name the rule", c.name, e.name, err)
			}
		}
	}
}

// TestStalePlanReplayMatchesStalePlan pins the drift loop's replay
// primitive over a generated grid of fleet × plan traffic × live traffic,
// each traffic a streamed profile or a parametric knob: a plan
// priced for one traffic shape, replayed through
// Options.FixedPipelines on a session built for another, rewrites the
// graph exactly as the stale plan did — also when the stale plan chose no
// pipeline at all. The live session changes only what simulation replays,
// never the plan.
func TestStalePlanReplayMatchesStalePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	// draw sets one generated workload on s and names it.
	draw := func(s *Session) string {
		gpus := s.Cluster.TotalGPUs()
		switch rng.Intn(5) {
		case 0:
			a := 0.2 + 1.8*rng.Float64()
			s.WorkloadProfile = netsim.ZipfProfile(gpus, a)
			return fmt.Sprintf("zipf profile %.3f", a)
		case 1:
			h := 0.1 + 0.8*rng.Float64()
			s.WorkloadProfile = netsim.HotExpertProfile(gpus, h)
			return fmt.Sprintf("hot profile %.3f", h)
		case 2:
			s.WorkloadSkew = 0.2 + 1.3*rng.Float64()
			return fmt.Sprintf("skew %.3f", s.WorkloadSkew)
		case 3:
			s.WorkloadHotExpert = 0.1 + 0.8*rng.Float64()
			return fmt.Sprintf("hot %.3f", s.WorkloadHotExpert)
		}
		return "balanced"
	}
	hash := func(p *Plan) uint64 {
		h := fnv.New64a()
		hashGraph(h, p.Graph)
		return h.Sum64()
	}
	// GPT2-L on 8 A100s plans no pipeline for the planted hot-expert share
	// 0.8 and some for the others, so an empty stale plan must replay as
	// empty there, not as a fresh DP.
	fleets := []struct {
		cfg     ModelConfig
		cluster Cluster
	}{
		{GPT2SMoE(0), MustCluster("V100", 8)},
		{GPT2SMoE(0), MustCluster("V100", 16)},
		{GPT2SMoE(0), MustCluster("V100", 32)},
		{GPT2LMoE(0), MustCluster("A100", 8)},
	}
	pairs, differ, emptyStale := 0, 0, 0
	for _, fl := range fleets {
		const shapes = 6
		names := make([]string, shapes)
		sessions := make([]*Session, shapes)
		plans := make([]*Plan, shapes)
		for i := range sessions {
			s, err := NewSession(fl.cfg, fl.cluster)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				s.WorkloadHotExpert = 0.8
				names[i] = "planted hot 0.800"
			} else {
				names[i] = draw(s)
			}
			if plans[i], err = s.Lancet(Options{}); err != nil {
				t.Fatal(err)
			}
			sessions[i] = s
		}
		for i, stale := range plans {
			want := hash(stale)
			for j, live := range sessions {
				replay, err := live.Lancet(Options{FixedPipelines: stale.Pipelines})
				if err != nil {
					t.Fatal(err)
				}
				pairs++
				if !reflect.DeepEqual(plans[j].Pipelines, stale.Pipelines) {
					differ++
					if len(stale.Pipelines) == 0 {
						emptyStale++
					}
				}
				if got := hash(replay); got != want {
					t.Errorf("%s on %s, plan %s replayed on %s: graph hash %016x, stale plan %016x",
						fl.cfg.Name, fl.cluster.Name, names[i], names[j], got, want)
				}
			}
		}
	}
	if differ == 0 || emptyStale == 0 {
		t.Errorf("%d of %d pairs planned different pipelines, %d of them from an empty stale plan; the grid must exercise both",
			differ, pairs, emptyStale)
	}
	t.Logf("%d replay pairs, %d with a fresh plan different from the stale one (%d stale plans empty)",
		pairs, differ, emptyStale)
}

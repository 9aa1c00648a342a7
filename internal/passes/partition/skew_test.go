package partition

import (
	"testing"

	"lancet/internal/netsim"
)

// ranges summarizes a result's chosen pipelines for comparison.
func rangeSummary(res *Result) [][3]int {
	out := make([][3]int, 0, len(res.Ranges))
	for _, r := range res.Ranges {
		out = append(out, [3]int{r.Start, r.End, r.K})
	}
	return out
}

func TestRunUnderSkewedProfile(t *testing.T) {
	// Same routed payload volume (half the padded buffer), different traffic
	// shape: only the Zipf profile concentrates ingress on a hot device.
	b, cm := buildFixture(t)
	g := cm.Cluster.TotalGPUs()
	const frac = 0.5
	uniRes, err := Run(b.Graph, cm, Options{Profile: netsim.UniformProfile(g), PayloadFraction: frac})
	if err != nil {
		t.Fatal(err)
	}
	skewRes, err := Run(b.Graph, cm, Options{Profile: netsim.ZipfProfile(g, 2.0), PayloadFraction: frac})
	if err != nil {
		t.Fatal(err)
	}
	// Hot-expert ingress makes every all-to-all slower, so the DP's
	// predicted forward time must grow under the skewed profile.
	if skewRes.ForwardUs <= uniRes.ForwardUs {
		t.Errorf("skew-priced forward %v us should exceed uniform %v us",
			skewRes.ForwardUs, uniRes.ForwardUs)
	}
	if skewRes.SerialForwardUs <= uniRes.SerialForwardUs {
		t.Errorf("skew-priced serial forward %v us should exceed uniform %v us",
			skewRes.SerialForwardUs, uniRes.SerialForwardUs)
	}
	if len(skewRes.Ranges) == 0 {
		t.Fatal("skew-aware DP should still choose pipelines")
	}
	// The price difference must actually move the chosen plan.
	if a, b := rangeSummary(uniRes), rangeSummary(skewRes); equalRanges(a, b) {
		t.Errorf("skewed profile should shift the chosen plan, both are %v", a)
	} else {
		t.Logf("uniform plan %v, skewed plan %v", a, b)
	}
}

func equalRanges(a, b [][3]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRunUniformProfileMatchesClosedFormPlan(t *testing.T) {
	// A *uniform* profile routes through netsim but must agree with the
	// closed-form pricing closely enough that the chosen plan is the same.
	b, cm := buildFixture(t)
	closed, err := Run(b.Graph, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	uni, err := Run(b.Graph, cm, Options{Profile: netsim.UniformProfile(cm.Cluster.TotalGPUs())})
	if err != nil {
		t.Fatal(err)
	}
	a, bb := rangeSummary(closed), rangeSummary(uni)
	if len(a) != len(bb) {
		t.Fatalf("uniform-profile plan %v differs from closed-form plan %v", bb, a)
	}
	for i := range a {
		if a[i] != bb[i] {
			t.Errorf("range %d: uniform-profile %v vs closed-form %v", i, bb[i], a[i])
		}
	}
}

func TestRunRejectsMismatchedProfile(t *testing.T) {
	b, cm := buildFixture(t)
	opts := Options{Profile: netsim.UniformProfile(3)}
	if _, err := Run(b.Graph, cm, opts); err == nil {
		t.Error("profile shaped for the wrong device count must error")
	}
	if _, err := Replay(b.Graph, cm, opts, nil); err == nil {
		t.Error("Replay: profile shaped for the wrong device count must error")
	}
}

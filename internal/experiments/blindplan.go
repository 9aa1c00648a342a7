package experiments

import (
	"fmt"

	"lancet"
)

// blindVsAware is one planner-blindness comparison, the measurement behind
// skew_planning, topology_planning, hetero_planning and
// multi_job_contention: one session planned by a planner blind to part of
// the world and by the planner that sees it, both replayed under the real
// workload and fabric (mean of 3 seeds).
type blindVsAware struct {
	blind, aware     *lancet.Plan
	blindRs, awareRs *lancet.ReportStats
}

// planBlindVsAware plans sess with the blind options, then with the aware
// ones, and simulates both plans.
func planBlindVsAware(sess *lancet.Session, blindOpts, awareOpts lancet.Options) (*blindVsAware, error) {
	blind, err := sess.Lancet(blindOpts)
	if err != nil {
		return nil, err
	}
	aware, err := sess.Lancet(awareOpts)
	if err != nil {
		return nil, err
	}
	rb, err := blind.SimulateN(3, 17)
	if err != nil {
		return nil, err
	}
	ra, err := aware.SimulateN(3, 17)
	if err != nil {
		return nil, err
	}
	return &blindVsAware{blind: blind, aware: aware, blindRs: rb, awareRs: ra}, nil
}

// cells formats the columns every blindness table shares: both mean
// iteration times, the pipeline counts (blind/aware) and the speedup.
func (c *blindVsAware) cells() (blindMs, awareMs, pipelines, speedup string) {
	return fmt.Sprintf("%.1f", c.blindRs.MeanMs),
		fmt.Sprintf("%.1f", c.awareRs.MeanMs),
		fmt.Sprintf("%d/%d", c.blind.PipelineRanges, c.aware.PipelineRanges),
		fmt.Sprintf("%.3fx", c.blindRs.MeanMs/c.awareRs.MeanMs)
}

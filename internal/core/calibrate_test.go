package core

import (
	"math"
	"testing"

	"textjoin/internal/costmodel"
)

// TestPlanSamples drives JoinIntegrated and checks that its decision and
// Stats yield exactly the planner's estimated-vs-measured pair for the
// chosen algorithm, in whole page units.
func TestPlanSamples(t *testing.T) {
	e := buildEnv(t, 18, 30, 25, 60, 15, 256)
	_, st, dec, err := JoinIntegrated(e.inputs(), Options{Lambda: 5, MemoryPages: 100})
	if err != nil {
		t.Fatal(err)
	}

	samples := PlanSamples(dec, st)
	if len(samples) != 1 {
		t.Fatalf("got %d samples, want 1: %+v", len(samples), samples)
	}
	s := samples[0]
	if s.Label != "plan-0" {
		t.Errorf("label = %q, want plan-0", s.Label)
	}
	if s.Algorithm != modelAlg(dec.Chosen) {
		t.Errorf("sample algorithm %v, decision %v", s.Algorithm, dec.Chosen)
	}
	var wantEst float64
	for _, est := range dec.Estimates {
		if est.Algorithm == s.Algorithm && !est.Prefiltered {
			wantEst = float64(costUnits(est.Seq))
		}
	}
	if s.Estimated != wantEst {
		t.Errorf("estimated = %g, want %g", s.Estimated, wantEst)
	}
	if want := float64(costUnits(st.Cost)); s.Measured != want {
		t.Errorf("measured = %g, want %g", s.Measured, want)
	}
}

func TestPlanSamplesEdgeCases(t *testing.T) {
	dec := Decision{Chosen: VVM, Estimates: []costmodel.Estimate{
		{Algorithm: costmodel.AlgHHNL, Seq: 10},
		{Algorithm: costmodel.AlgVVM, Seq: 39.6, Prefiltered: true},
		{Algorithm: costmodel.AlgVVM, Seq: 40.4},
	}}

	// A failed run (nil Stats) measured nothing.
	if got := PlanSamples(dec, nil); got != nil {
		t.Errorf("nil stats: %+v", got)
	}

	// The unfiltered estimate of the chosen algorithm pairs with the
	// measurement, even when a prefiltered variant of it was priced
	// too; both sides round to whole pages.
	got := PlanSamples(dec, &Stats{Cost: 43.5})
	if len(got) != 1 || got[0].Algorithm != costmodel.AlgVVM || got[0].Estimated != 40 || got[0].Measured != 44 {
		t.Fatalf("unfiltered pairing: %+v", got)
	}

	// An infeasible estimate clamps like the plan span's attribute.
	dec.Estimates[2].Seq = math.Inf(1)
	if got := PlanSamples(dec, &Stats{Cost: 1}); len(got) != 1 || got[0].Estimated != float64(math.MaxInt64) {
		t.Fatalf("infeasible estimate: %+v", got)
	}

	// A decision that never priced the chosen algorithm unfiltered has
	// nothing to pair.
	dec.Estimates = dec.Estimates[:2]
	if got := PlanSamples(dec, &Stats{Cost: 1}); got != nil {
		t.Fatalf("missing estimate: %+v", got)
	}
}

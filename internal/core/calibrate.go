package core

import "textjoin/internal/costmodel"

// PlanSamples turns one integrated run into cost-model calibration
// samples: the planner's unfiltered estimate for the algorithm it chose,
// paired with that run's measured α-priced cost, both rounded to whole
// page units as the plan span records them. A prefiltered win still
// pairs with the unfiltered estimate, the paper's model being the one
// calibrated. The estimates of the algorithms the planner rejected
// produce no sample — their cost was never observed.
//
// The result holds at most one sample, labelled "plan-0"; callers
// auditing a whole grid prefix the label per cell. It is nil when st is
// nil (the run failed) or the decision lacks the chosen estimate.
func PlanSamples(dec Decision, st *Stats) []costmodel.Sample {
	if st == nil {
		return nil
	}
	want := modelAlg(dec.Chosen)
	for _, e := range dec.Estimates {
		if e.Algorithm == want && !e.Prefiltered {
			return []costmodel.Sample{{
				Label:     "plan-0",
				Algorithm: want,
				Estimated: float64(costUnits(e.Seq)),
				Measured:  float64(costUnits(st.Cost)),
			}}
		}
	}
	return nil
}

// modelAlg converts a core algorithm id to its costmodel counterpart.
func modelAlg(a Algorithm) costmodel.Algorithm {
	switch a {
	case HVNL:
		return costmodel.AlgHVNL
	case VVM:
		return costmodel.AlgVVM
	case LSH:
		return costmodel.AlgLSH
	default:
		return costmodel.AlgHHNL
	}
}

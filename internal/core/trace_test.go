package core

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"textjoin/internal/reqtrace"
	"textjoin/internal/signature"
	"textjoin/internal/telemetry"
)

// joinPhases is the taxonomy RecordPhases folds.
var joinPhases = []string{
	reqtrace.PhaseSetup, reqtrace.PhaseScan, reqtrace.PhaseProbe, reqtrace.PhaseScore,
	reqtrace.PhaseFlush, reqtrace.PhaseMerge, reqtrace.PhaseFinalize, reqtrace.PhasePlan,
}

// stepClock is a deterministic tracer clock advancing 1µs per reading,
// so every span has a distinct, non-zero duration.
func stepClock() func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		t = t.Add(time.Microsecond)
		return t
	}
}

// joinPhaseCounts counts a trace's spans per join phase.
func joinPhaseCounts(d *reqtrace.TraceData) map[string]int64 {
	counts := map[string]int64{}
	for _, sp := range d.Spans {
		for _, p := range joinPhases {
			if sp.Phase == p {
				counts[p]++
			}
		}
	}
	return counts
}

// TestRecordPhases folds a request-shaped trace — serving spans around
// real joins — and checks that every join phase's histogram holds
// exactly that phase's spans, while the request, queue, exec and io
// spans are not folded at all.
func TestRecordPhases(t *testing.T) {
	e := buildEnv(t, 21, 30, 25, 60, 15, 256)
	root := reqtrace.NewTracer(3, stepClock()).StartTrace("join")
	root.StartChild("queue", "admission").End()
	exec := root.StartChild("exec", "join")
	opts := Options{Lambda: 5, MemoryPages: 100, Trace: exec}
	if _, _, _, err := JoinIntegrated(e.inputs(), opts); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{HHNL, HVNL, VVM} {
		if _, _, err := Join(alg, e.inputs(), opts); err != nil {
			t.Fatal(err)
		}
	}
	exec.End()
	root.StartChild("io", "view").End()
	d := root.Data()

	tel := telemetry.New()
	RecordPhases(tel, d)
	want := joinPhaseCounts(d)
	if len(want) != len(joinPhases) {
		t.Fatalf("the joins ran phases %v, want all of %v", want, joinPhases)
	}
	for _, p := range joinPhases {
		var durs int64
		for _, sp := range d.Spans {
			if sp.Phase == p {
				durs += sp.DurNanos
			}
		}
		h := tel.Histogram("phase."+p+".ns", nil)
		if h.Count() != want[p] {
			t.Errorf("phase %s: histogram count %d, spans %d", p, h.Count(), want[p])
		}
		for _, hv := range tel.Snapshot().Histograms {
			if hv.Name == "phase."+p+".ns" && hv.Sum != durs {
				t.Errorf("phase %s: histogram sum %d, span durations %d", p, hv.Sum, durs)
			}
		}
	}
	for _, hv := range tel.Snapshot().Histograms {
		for _, serving := range []string{"request", "queue", "exec", "io"} {
			if hv.Name == "phase."+serving+".ns" {
				t.Errorf("serving span folded: %s", hv.Name)
			}
		}
	}

	// Disabled on either side is a no-op.
	RecordPhases(nil, d)
	RecordPhases(tel, nil)
}

// TestPlanSpanRecordsEveryEstimate: the integrated.choose span carries
// every candidate's sequential and random estimate, the prefiltered
// variants included, and the unfiltered estimate of the chosen plan is
// the number PlanSamples calibrates with.
func TestPlanSpanRecordsEveryEstimate(t *testing.T) {
	e := buildEnv(t, 22, 30, 25, 60, 15, 256)
	root := reqtrace.NewTracer(4, stepClock()).StartTrace("join")
	opts := Options{Lambda: 5, MemoryPages: 100, Trace: root,
		Prefilter: buildTestPrefilter(t, e, signature.Config{})}
	_, st, dec, err := JoinIntegrated(e.inputs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	attrs := map[string]string{}
	for _, sp := range root.Data().Spans {
		if sp.Name == "integrated.choose" {
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Value
			}
		}
	}
	if attrs["plan.chosen"] != dec.Chosen.String() {
		t.Fatalf("plan span attrs %v, chosen %v", attrs, dec.Chosen)
	}
	prefiltered := 0
	for _, est := range dec.Estimates {
		name := "estimate." + strings.ToLower(est.Algorithm.String())
		if est.Prefiltered {
			name += ".prefilter"
			prefiltered++
		}
		if got, want := attrs[name+".seq"], strconv.FormatInt(costUnits(est.Seq), 10); got != want {
			t.Errorf("%s.seq = %q, want %s", name, got, want)
		}
		if got, want := attrs[name+".rand"], strconv.FormatInt(costUnits(est.Rand), 10); got != want {
			t.Errorf("%s.rand = %q, want %s", name, got, want)
		}
	}
	if prefiltered == 0 {
		t.Error("the planner priced no prefiltered variant")
	}
	samples := PlanSamples(dec, st)
	if len(samples) != 1 {
		t.Fatalf("samples: %+v", samples)
	}
	chosen := "estimate." + strings.ToLower(dec.Chosen.String()) + ".seq"
	if got := strconv.FormatInt(int64(samples[0].Estimated), 10); got != attrs[chosen] {
		t.Errorf("calibration estimate %s, plan span %s = %s", got, chosen, attrs[chosen])
	}
}

// Command perfbench is textjoin's wall-clock benchmark. One run measures
// one workload for a fixed time, checks every output, and prints one
// JSON result line last:
//
//	perfbench -root <repo> --workload resident|paged|serve --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics, --trace 1 a separate traced
// run's per-layer metrics (and writes the run's spans to
// .bench_build/traces/). --steady N runs every workload N times with
// different seeds and prints each end-to-end metric's spread next to
// its bound from BENCHMARK.json. See README.md for the design.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so slow set-ups cannot move it.
const setupReps = 9

// units gives every metric's unit, end-to-end and per-layer.
var units = map[string]string{
	"setup_s":         "s",
	"docs_per_s":      "docs/s",
	"join_ms_geomean": "ms",
	"cpu_us_per_doc":  "us",
	"io_cost_per_doc": "pages",
	"peak_rss_mb":     "MiB",
	"success_frac":    "ratio",
	"recall":          "ratio",
	"latency_p50_ms":  "ms",
	"latency_p99_ms":  "ms",
	"max_rate_rps":    "req/s",

	"core.comparisons_per_op":      "count",
	"core.accumulations_per_op":    "count",
	"core.passes_per_op":           "count",
	"iosim.seq_pages_per_op":       "pages",
	"iosim.rand_pages_per_op":      "pages",
	"iosim.read_us_per_page":       "us",
	"collection.scan_ms":           "ms",
	"invfile.fetch_entry_us":       "us",
	"invfile.scan_ms":              "ms",
	"entrycache.hit_rate":          "ratio",
	"entrycache.evictions_per_op":  "count",
	"signature.pages_skipped_frac": "ratio",
	"signature.false_pass_frac":    "ratio",
	"lsh.candidates_per_doc":       "count",
	"lsh.verify_yield":             "ratio",
	"costmodel.choose_us":          "us",
	"costmodel.plan_regret":        "ratio",
	"costmodel.est_error_log2":     "log2",
	"persist.save_ms":              "ms",
	"persist.load_ms":              "ms",
	"textjoind.queue_ms_p50":       "ms",
	"textjoind.exec_ms_p50":        "ms",
	"textjoind.gap_ms_p50":         "ms",
	"textjoind.rejected_frac":      "ratio",
	"loadgen.lag_ms_p99":           "ms",
	"trace.overhead_frac":          "ratio",
	"env.steal_frac":               "ratio",
}

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = []string{
	"setup_s", "docs_per_s", "join_ms_geomean", "cpu_us_per_doc", "io_cost_per_doc",
	"peak_rss_mb", "success_frac", "recall", "latency_p50_ms", "latency_p99_ms", "max_rate_rps",
}

func init() {
	for _, e := range allEntries {
		units["core.join_ms."+e] = "ms"
	}
	for _, a := range []string{"hhnl", "hvnl", "vvm"} {
		units["core.speedup."+a] = "ratio"
	}
	for _, p := range corePhases {
		units["core.phase_self_ms."+p] = "ms"
	}
}

// perLayer lists the per-layer metrics every traced run reports.
func perLayer() []string {
	ee := map[string]bool{}
	for _, n := range endToEnd {
		ee[n] = true
	}
	var out []string
	for n := range units {
		if !ee[n] {
			out = append(out, n)
		}
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's arguments.
type config struct {
	root     string
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
}

// outcome is what a workload run hands back: its metrics, its tally,
// and notes for the diagnostics line.
type outcome struct {
	metrics map[string]float64
	tally
	notes map[string]any
}

func main() {
	var cfg config
	var seconds, trace, steady int
	flag.StringVar(&cfg.root, "root", ".", "repository root; build outputs and trace files go under its .bench_build/")
	flag.StringVar(&cfg.workload, "workload", "", "resident, paged or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&seconds, "seconds", 20, "measured time of one run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.IntVar(&steady, "steady", 0, "steadiness self-check: run every workload this many times, one seed each, and print spreads against bounds")
	flag.Parse()
	cfg.budget = time.Duration(seconds) * time.Second
	cfg.traced = trace == 1

	if steady > 0 {
		if err := steadyCheck(cfg, seconds, steady); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	out, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if out.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", out.firstErr)
	}
	names := endToEnd
	if cfg.traced {
		names = perLayer()
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for _, n := range names {
		v, ok := out.metrics[n]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s not measured\n", cfg.workload, n)
			os.Exit(1)
		}
		res.Metrics[n] = metric{Value: v, Unit: units[n]}
	}
	diag, _ := json.Marshal(map[string]any{"workload": cfg.workload, "seed": cfg.seed, "trace": trace, "notes": out.notes})
	fmt.Println(string(diag))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload runs one workload and adds the measurements every run
// carries: peak RSS, success share, hypervisor steal and the machine
// fingerprint.
func runWorkload(cfg config) (*outcome, error) {
	ticks := readCPUTicks()
	var out *outcome
	var err error
	switch cfg.workload {
	case "resident", "paged":
		out, err = runJoins(cfg)
	case "serve":
		out, err = runServe(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want resident, paged or serve)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	if out.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation ran", cfg.workload)
	}
	out.metrics["success_frac"] = float64(out.attempted-out.failed) / float64(out.attempted)
	if _, ok := out.metrics["peak_rss_mb"]; !ok {
		if out.metrics["peak_rss_mb"], err = peakRSSMiB("self"); err != nil {
			return nil, err
		}
	}
	steal := stealFrac(ticks, readCPUTicks())
	out.metrics["env.steal_frac"] = steal
	out.notes["fingerprint"] = machine(steal)
	return out, nil
}

// runJoins runs an in-process join workload: set up setupReps times, compute
// the brute-force reference, then interleaved rounds of its entry
// points until the time budget is spent.
func runJoins(cfg config) (*outcome, error) {
	build, names := buildResident, []string{"hhnl", "hvnl", "vvm", "hhnl-w2", "hvnl-w2", "vvm-w2", "lsh", "auto"}
	if cfg.workload == "paged" {
		build, names = buildPaged, []string{"hhnl", "hhnl-pf", "hvnl", "hvnl-pf", "vvm", "lsh", "auto"}
	}
	var env *joinEnv
	var setups, saves, loads []float64
	for i := 0; i < setupReps; i++ {
		env = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if env, err = build(cfg.seed); err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		saves, loads = append(saves, env.saveMs), append(loads, env.loadMs)
	}
	inner, err := readAll(env.c1)
	if err != nil {
		return nil, err
	}
	outer, err := readAll(env.c2)
	if err != nil {
		return nil, err
	}
	r := &joinRunner{env: env, ref: bruteForce(inner, outer, env.lambda)}
	m := map[string]float64{"setup_s": median(setups)}
	out := &outcome{metrics: m, notes: map[string]any{"setups_s": setups}}
	if cfg.traced {
		r.log = newSpanLog(cfg.seed)
		rounds := r.rounds(allEntries, 1, 3, cfg.budget, true)
		joinLayerMetrics(rounds, r.log, m)
		if err := layerProbes(env, r.log, m); err != nil {
			return nil, err
		}
		if cfg.workload == "paged" {
			m["persist.save_ms"], m["persist.load_ms"] = median(saves), median(loads)
		}
		if err := serveProbe(cfg, m, &r.tally); err != nil {
			return nil, err
		}
		out.notes["rounds"] = len(rounds)
		out.notes["trace_file"], err = writeTrace(cfg, r.log)
		if err != nil {
			return nil, err
		}
		out.tally = r.tally
		return out, nil
	}

	// Every round does the same work, so rates are taken per round and
	// the median round reported: a burst of machine noise moves a few
	// rounds, not the figure.
	rounds := r.rounds(names, 2, 5, cfg.budget, false)
	var docs, cost float64
	walls := map[string][]float64{}
	var roundMs, docRate, opRate, cpuPerDoc []float64
	for _, round := range rounds {
		var rw, rc time.Duration
		var rd float64
		for _, o := range round {
			rd += float64(o.st.OuterDocs)
			cost += o.st.Cost
			rw += o.wall
			rc += o.cpu
			walls[o.entry] = append(walls[o.entry], float64(o.wall.Nanoseconds())/1e6)
		}
		docs += rd
		roundMs = append(roundMs, float64(rw.Nanoseconds())/1e6)
		docRate = append(docRate, rd/rw.Seconds())
		opRate = append(opRate, float64(len(round))/rw.Seconds())
		cpuPerDoc = append(cpuPerDoc, float64(rc.Nanoseconds())/1e3/rd)
	}
	var meds []float64
	perEntry := map[string]float64{}
	for _, n := range names {
		perEntry[n] = median(walls[n])
		meds = append(meds, perEntry[n])
	}
	out.notes["entry_median_ms"] = perEntry
	m["docs_per_s"] = median(docRate)
	m["join_ms_geomean"] = geomean(meds)
	m["cpu_us_per_doc"] = median(cpuPerDoc)
	m["io_cost_per_doc"] = cost / docs
	m["recall"] = r.recall
	m["latency_p50_ms"] = median(roundMs)
	var q float64
	m["latency_p99_ms"], q = tailPercentile(roundMs)
	m["max_rate_rps"] = median(opRate)
	out.notes["rounds"] = len(rounds)
	out.notes["latency_tail_quantile"] = q
	out.tally = r.tally
	return out, nil
}

// writeTrace stores a traced run's spans under .bench_build/traces/.
func writeTrace(cfg config, log *spanLog) (string, error) {
	path := filepath.Join(cfg.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	return path, log.write(path, map[string]any{"workload": cfg.workload, "seed": cfg.seed})
}

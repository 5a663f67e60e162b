package main

import (
	"fmt"
	"io"
	"math"
	"strings"

	"textjoin"
)

// The LSH grid charts the recall-vs-speed frontier of the approximate
// MinHash/banding join against exact ground truth. It reuses the
// prefilter grid's clustered corpora — the regime where candidate
// generation can skip whole page runs — and runs every banding shape of
// lshGridConfigs over them. Each LSH cell's recall is *measured*: the
// exact HHNL result set of the same shape is the ground-truth pair set,
// and recall is the fraction of those pairs the approximate join
// returned. The run itself fails unless the frontier meets the floor
// the baseline was accepted under: at least one cell with recall ≥ 0.9
// at no more than half the page reads of the best exact cell.

// lshRecallFloor and lshSpeedupFloor are the acceptance gate: some cell
// must reach this recall while reading at most 1/lshSpeedupFloor of the
// best exact join's pages.
const (
	lshRecallFloor  = 0.9
	lshSpeedupFloor = 2.0
)

// lshGridConfigs returns the banding shapes of the frontier, ordered
// from cheap-and-lossy to candidate-heavy-and-near-exact. Rows per band
// sharpen the S-curve (fewer low-similarity candidates, lower recall);
// bands buy recall back at the cost of more bucket collisions.
func lshGridConfigs() []textjoin.LSHConfig {
	return []textjoin.LSHConfig{
		{Bands: 8, Rows: 1},
		{Bands: 16, Rows: 1},
		{Bands: 32, Rows: 1},
		{Bands: 64, Rows: 1},
		{Bands: 32, Rows: 2},
	}
}

func lshAlgName(cfg textjoin.LSHConfig) string {
	return fmt.Sprintf("LSH-b%dr%d", cfg.Bands, cfg.Rows)
}

// lshPair is one (outer, inner) match used for the recall measurement.
type lshPair struct{ outer, inner uint32 }

func lshPairSet(results []textjoin.Result) map[lshPair]bool {
	set := make(map[lshPair]bool)
	for _, r := range results {
		for _, m := range r.Matches {
			set[lshPair{r.Outer, m.Doc}] = true
		}
	}
	return set
}

// lshMeasuredRecall is |got ∩ truth| / |truth|; an empty truth set makes
// recall trivially 1.
func lshMeasuredRecall(got []textjoin.Result, truth map[lshPair]bool) float64 {
	if len(truth) == 0 {
		return 1
	}
	hits := 0
	for _, r := range got {
		for _, m := range r.Matches {
			if truth[lshPair{r.Outer, m.Doc}] {
				hits++
			}
		}
	}
	return float64(hits) / float64(len(truth))
}

// runLSHGrid executes the recall-vs-speed grid. Exact cells (HHNL at
// the grid budget, HVNL at its larger index-resident budget) establish
// the ground truth and the best exact page-read count per shape; each
// banding shape then runs on a freshly built, byte-identical workspace —
// the sidecar file name is fixed per collection, so one workspace can
// hold only one banding shape — at every worker count, gated on
// serial/parallel hash equality.
func runLSHGrid(cfg BenchConfig) (*Report, error) {
	cfg.MemoryPages = 8
	report := &Report{Version: 1, Config: cfg}
	gateMet := false
	for _, sh := range pfShapes() {
		env, _, err := buildLSHShape(sh, cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", sh.name, err)
		}
		var truth map[lshPair]bool
		bestExact := int64(math.MaxInt64)
		for _, alg := range []textjoin.Algorithm{textjoin.HHNL, textjoin.HVNL} {
			cfg := cfg
			if alg == textjoin.HVNL {
				cfg.MemoryPages = 64
			}
			for _, workers := range cfg.Workers {
				cell, results, err := runCell(env, cfg, sh.name, alg, workers)
				if err != nil {
					return nil, fmt.Errorf("%s/%v/w%d: %v", sh.name, alg, workers, err)
				}
				report.Cells = append(report.Cells, cell)
				if workers == 1 {
					if alg == textjoin.HHNL {
						truth = lshPairSet(results)
					}
					if reads := cell.SeqReads + cell.RandReads; reads < bestExact {
						bestExact = reads
					}
				}
			}
		}
		for _, lcfg := range lshGridConfigs() {
			lenv, sc, err := buildLSHShape(sh, cfg, &lcfg)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %v", sh.name, lshAlgName(lcfg), err)
			}
			var serialHash string
			for _, workers := range cfg.Workers {
				cell, results, err := runLSHCell(lenv, sc, cfg, sh.name, lcfg, workers)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/w%d: %v", sh.name, lshAlgName(lcfg), workers, err)
				}
				cell.Recall = lshMeasuredRecall(results, truth)
				if workers == 1 {
					serialHash = cell.ResultsHash
					reads := cell.SeqReads + cell.RandReads
					if cell.Recall >= lshRecallFloor && float64(reads)*lshSpeedupFloor <= float64(bestExact) {
						gateMet = true
					}
				} else if cell.ResultsHash != serialHash {
					return nil, fmt.Errorf("%s/%s/w%d: parallel results diverge from serial: hash %s vs %s",
						sh.name, lshAlgName(lcfg), workers, cell.ResultsHash, serialHash)
				}
				report.Cells = append(report.Cells, cell)
			}
		}
	}
	if !gateMet {
		return nil, fmt.Errorf("frontier gate failed: no cell reached recall ≥ %.2f at ≤ 1/%.0f of the best exact page reads",
			lshRecallFloor, lshSpeedupFloor)
	}
	return report, nil
}

// buildLSHShape rebuilds the prefilter grid's clustered workspace and,
// when a banding shape is given, attaches the inner collection's MinHash
// sidecar. The rebuild per shape is what keeps the grid honest: the
// generator is deterministic, so every banding shape measures the exact
// same corpus, and the exact ground truth carries across workspaces.
func buildLSHShape(sh pfShape, cfg BenchConfig, lcfg *textjoin.LSHConfig) (*shapeEnv, *textjoin.LSHSidecar, error) {
	env, _, err := buildPrefilterShape(sh, cfg)
	if err != nil {
		return nil, nil, err
	}
	if lcfg == nil {
		return env, nil, nil
	}
	sc, err := env.ws.BuildLSH(env.c1, *lcfg)
	if err != nil {
		return nil, nil, err
	}
	env.ws.ResetIOStats()
	return env, sc, nil
}

// runLSHCell is the approximate counterpart of runCell: same parked
// heads, same options, with the sidecar offered through Options.LSH
// and the LSH skip/probe counters landing in the cell.
func runLSHCell(env *shapeEnv, sc *textjoin.LSHSidecar, cfg BenchConfig, shapeName string, lcfg textjoin.LSHConfig, workers int) (Cell, []textjoin.Result, error) {
	env.ws.ParkHeads()
	in, opts := env.inputs(), env.options(cfg)
	opts.LSH = sc
	var results []textjoin.Result
	var stats *textjoin.JoinStats
	var err error
	if workers > 1 {
		results, stats, err = textjoin.JoinLSHParallel(in, opts, workers)
	} else {
		results, stats, err = textjoin.JoinLSH(in, opts)
	}
	if err != nil {
		return Cell{}, nil, err
	}
	return Cell{
		Shape:         shapeName,
		Algorithm:     lshAlgName(lcfg),
		Workers:       workers,
		SeqReads:      stats.IO.SeqReads,
		RandReads:     stats.IO.RandReads,
		Cost:          stats.Cost,
		Comparisons:   stats.Comparisons,
		Accumulations: stats.Accumulations,
		EntryFetches:  stats.EntryFetches,
		CacheHits:     stats.Cache.Hits,
		CacheMisses:   stats.Cache.Misses,
		PagesSkipped:  stats.LSH.PagesSkipped,
		DocsSkipped:   stats.LSH.DocsSkipped,
		BucketProbes:  stats.LSH.BucketProbes,
		Candidates:    stats.LSH.Candidates,
		ResultsHash:   hashResults(results),
	}, results, nil
}

// writeLSHSummary renders the recall-vs-speed frontier: per shape, the
// best exact page-read count, then every banding shape's measured recall
// and read reduction against it.
func writeLSHSummary(w io.Writer, r *Report) {
	bestExact := map[string]int64{}
	for _, c := range r.Cells {
		if strings.HasPrefix(c.Algorithm, "LSH-") || c.Workers != 1 {
			continue
		}
		reads := c.SeqReads + c.RandReads
		if cur, ok := bestExact[c.Shape]; !ok || reads < cur {
			bestExact[c.Shape] = reads
		}
	}
	for _, c := range r.Cells {
		if !strings.HasPrefix(c.Algorithm, "LSH-") || c.Workers != 1 {
			continue
		}
		br := bestExact[c.Shape]
		reads := c.SeqReads + c.RandReads
		speedup := math.Inf(1)
		if reads > 0 {
			speedup = float64(br) / float64(reads)
		}
		fmt.Fprintf(w, "%-14s %-9s recall %.4f: page reads %d vs best exact %d (%.1f× fewer; %d probes, %d candidates, %d pages skipped)\n",
			c.Shape, c.Algorithm, c.Recall, reads, br, speedup,
			c.BucketProbes, c.Candidates, c.PagesSkipped)
	}
}

package main

import (
	"fmt"
	"io"
	"strings"

	"textjoin"
	"textjoin/internal/corpus"
)

// The prefilter grid measures the signature + cluster pruning layer on
// corpora where it can act: planted-topic collections run through the
// cluster-driven build path (greedy reorder → signature sidecar →
// id-remapped inverted file). Each (shape, algorithm, workers) pair is
// run twice — prefilter off and on — and the run itself fails unless
// the two result hashes are identical: the baseline file cannot even be
// generated from a filter that changes results.

// pfShape is one clustered pairing of the prefilter grid.
type pfShape struct {
	name             string
	n1, n2           int64
	termsPerDoc      float64
	vocab1, vocab2   int64
	topics1, topics2 int
}

// pfShapes returns the prefilter grid's pairings: a self-similar pair
// of equal vocabularies (inner-scan pruning carries HHNL) and a pair
// where the outer vocabulary is four times wider, so three quarters of
// the outer documents are provably disjoint from the inner collection
// (outer-sweep pruning carries HVNL).
func pfShapes() []pfShape {
	return []pfShape{
		{"clustered-eq", 512, 512, 64, 16384, 16384, 16, 16},
		{"clustered-wide", 512, 512, 64, 16384, 65536, 4, 16},
	}
}

// pfSigConfig is the code the prefilter grid uses. One hash over
// coarse term buckets keeps the page and cluster aggregates sparse
// enough that topically distinct regions stay distinguishable.
func pfSigConfig() textjoin.SignatureConfig {
	return textjoin.SignatureConfig{Bits: 2048, Hashes: 1, Granularity: 512, ClusterDocs: 16}
}

// buildPrefilterShape builds one clustered workspace: the inner
// collection is generated scattered and then rebuilt through the full
// clustered layout (reorder, sidecar, remapped inverted file); the
// outer collection is stored topic-contiguously so HHNL batches stay
// topically narrow.
func buildPrefilterShape(sh pfShape, cfg BenchConfig) (*shapeEnv, *textjoin.Prefilter, error) {
	ws := textjoin.NewWorkspace(textjoin.WithAlpha(cfg.Alpha))
	gen := func(name string, n, vocab int64, topics int, scatter bool, seed int64) (*textjoin.Collection, error) {
		f, err := ws.Disk().Create(name)
		if err != nil {
			return nil, err
		}
		p := corpus.ClusteredProfile{
			Profile:       corpus.Profile{Name: name, NumDocs: n, TermsPerDoc: sh.termsPerDoc, DistinctTerms: vocab},
			Topics:        topics,
			TopicFraction: 1.0,
			Scatter:       scatter,
		}
		return corpus.GenerateClustered(p, seed, f)
	}
	src, err := gen("c1src", sh.n1, sh.vocab1, sh.topics1, true, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	srcInv, err := ws.BuildInvertedFile(src)
	if err != nil {
		return nil, nil, err
	}
	lay, err := ws.BuildClusteredLayout("c1", src, srcInv, pfSigConfig())
	if err != nil {
		return nil, nil, err
	}
	c2, err := gen("c2", sh.n2, sh.vocab2, sh.topics2, false, cfg.Seed+1)
	if err != nil {
		return nil, nil, err
	}
	inv2, err := ws.BuildInvertedFile(c2)
	if err != nil {
		return nil, nil, err
	}
	sig2, err := ws.BuildSignatures(c2, pfSigConfig())
	if err != nil {
		return nil, nil, err
	}
	if _, err := lay.InvertedFile.LoadIndex(); err != nil {
		return nil, nil, err
	}
	if _, err := inv2.LoadIndex(); err != nil {
		return nil, nil, err
	}
	ws.ResetIOStats()
	env := &shapeEnv{ws: ws, c1: lay.Collection, c2: c2, inv1: lay.InvertedFile, inv2: inv2}
	return env, &textjoin.Prefilter{Inner: lay.Signatures, Outer: sig2}, nil
}

// runPrefilterGrid executes the prefilter grid: every cell twice, off
// then on, gated on exact result-hash equality. The memory budget is
// pinned low per algorithm — 8 pages for HHNL so its batches span few
// topics (the regime the pruning targets), 64 for HVNL whose resident
// B+tree index alone needs more than 8.
func runPrefilterGrid(cfg BenchConfig) (*Report, error) {
	cfg.MemoryPages = 8
	report := &Report{Version: 1, Config: cfg}
	for _, sh := range pfShapes() {
		env, pf, err := buildPrefilterShape(sh, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", sh.name, err)
		}
		for _, alg := range []textjoin.Algorithm{textjoin.HHNL, textjoin.HVNL} {
			cfg := cfg
			if alg == textjoin.HVNL {
				cfg.MemoryPages = 64
			}
			for _, workers := range cfg.Workers {
				off, _, err := runCell(env, cfg, sh.name, alg, workers)
				if err != nil {
					return nil, fmt.Errorf("%s/%v/w%d: %v", sh.name, alg, workers, err)
				}
				on, err := runPrefilterCell(env, pf, cfg, sh.name, alg, workers)
				if err != nil {
					return nil, fmt.Errorf("%s/%v/w%d+pf: %v", sh.name, alg, workers, err)
				}
				if on.ResultsHash != off.ResultsHash {
					return nil, fmt.Errorf("%s/%v/w%d: prefilter changed results: hash %s (on) vs %s (off)",
						sh.name, alg, workers, on.ResultsHash, off.ResultsHash)
				}
				report.Cells = append(report.Cells, off, on)
			}
		}
	}
	return report, nil
}

// runPrefilterCell is runCell with the sidecars offered to the join;
// the cell's algorithm label gains a "+pf" suffix.
func runPrefilterCell(env *shapeEnv, pf *textjoin.Prefilter, cfg BenchConfig, shapeName string, alg textjoin.Algorithm, workers int) (Cell, error) {
	env.ws.ParkHeads()
	in, opts := env.inputs(), env.options(cfg)
	opts.Prefilter = pf
	var results []textjoin.Result
	var stats *textjoin.JoinStats
	var err error
	switch {
	case workers > 1 && alg == textjoin.HHNL:
		results, stats, err = textjoin.JoinHHNLParallel(in, opts, workers)
	case workers > 1 && alg == textjoin.HVNL:
		results, stats, err = textjoin.JoinHVNLParallel(in, opts, workers)
	default:
		results, stats, err = textjoin.Join(alg, in, opts)
	}
	if err != nil {
		return Cell{}, err
	}
	return Cell{
		Shape:           shapeName,
		Algorithm:       alg.String() + "+pf",
		Workers:         workers,
		SeqReads:        stats.IO.SeqReads,
		RandReads:       stats.IO.RandReads,
		Cost:            stats.Cost,
		Comparisons:     stats.Comparisons,
		Accumulations:   stats.Accumulations,
		EntryFetches:    stats.EntryFetches,
		CacheHits:       stats.Cache.Hits,
		CacheMisses:     stats.Cache.Misses,
		PagesSkipped:    stats.Prefilter.PagesSkipped,
		ClustersSkipped: stats.Prefilter.ClustersSkipped,
		DocsSkipped:     stats.Prefilter.DocsSkipped,
		FalsePasses:     stats.Prefilter.FalsePasses,
		ResultsHash:     hashResults(results),
	}, nil
}

// writePrefilterSummary appends the pruning outcome per on/off pair:
// the page-read reduction the filter bought and the skip counters.
func writePrefilterSummary(w io.Writer, r *Report) {
	off := map[string]Cell{}
	for _, c := range r.Cells {
		if !strings.HasSuffix(c.Algorithm, "+pf") {
			off[c.key()] = c
		}
	}
	for _, c := range r.Cells {
		if !strings.HasSuffix(c.Algorithm, "+pf") {
			continue
		}
		base, ok := off[fmt.Sprintf("%s/%s/w%d", c.Shape, strings.TrimSuffix(c.Algorithm, "+pf"), c.Workers)]
		if !ok {
			continue
		}
		br := base.SeqReads + base.RandReads
		cr := c.SeqReads + c.RandReads
		var red float64
		if br > 0 {
			red = 100 * (1 - float64(cr)/float64(br))
		}
		fmt.Fprintf(w, "%-14s %-5s w%d: page reads %d → %d (%.1f%% fewer; skipped %d pages, %d clusters, %d docs; %d false passes)\n",
			c.Shape, strings.TrimSuffix(c.Algorithm, "+pf"), c.Workers, br, cr, red,
			c.PagesSkipped, c.ClustersSkipped, c.DocsSkipped, c.FalsePasses)
	}
}

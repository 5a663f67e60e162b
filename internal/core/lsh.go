package core

import (
	"fmt"

	"textjoin/internal/costmodel"
	"textjoin/internal/document"
	"textjoin/internal/lsh"
	"textjoin/internal/topk"
)

// JoinLSH evaluates the join approximately with MinHash/banding
// buckets: resident outer batches are filled exactly as in HHNL (same
// memory policy, same batch boundaries), but instead of scanning the
// whole inner collection per batch, each resident outer document's band
// keys probe the inner sidecar's buckets, and only the inner documents
// that share at least one bucket with some resident outer document are
// read — via the same filtered scan the signature prefilter uses, so
// pages with no candidates are never read.
//
// Every candidate pair is verified with the exact scorer before it may
// enter a λ-tracker, so precision is perfect: any returned (outer,
// inner, sim) triple is byte-identical to what the exact joins compute
// for that pair. What LSH trades away is recall — a truly similar pair
// whose band keys never collide is missed. The expected recall for a
// pair of Jaccard similarity s is 1 − (1 − s^r)^b (lsh.EstimateRecall),
// which the cost model exposes to the integrated planner.
//
// Options.LSH must hold the sidecar built over Inputs.Inner's current
// layout. Options.Prefilter is ignored: bucket candidate generation
// subsumes the signature skip.
func JoinLSH(in Inputs, opts Options) ([]Result, *Stats, error) {
	return joinLSH(in, opts, 1)
}

// JoinLSHParallel is JoinLSH with the candidate verification fanned out
// over workers, following the HHNL discipline: batch fill, bucket
// probing and the filtered inner scan all stay on the coordinator (same
// I/O, same candidates, same skip counters as one worker); chunks of
// scanned candidate documents go to a worker pool, each worker scoring
// them against its candidates' resident outer documents into its own
// trackers, merged per batch. Results and Stats are byte-identical to
// the serial join.
func JoinLSHParallel(in Inputs, opts Options, workers int) ([]Result, *Stats, error) {
	return joinLSH(in, opts, resolveWorkers(workers))
}

// joinLSH is LSH's one executor: the batched nested loop HHNL runs, with
// the bucket probe as its per-batch candidate step. workers ≥ 1.
func joinLSH(in Inputs, opts Options, workers int) ([]Result, *Stats, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	if in.Outer == nil || in.Inner == nil {
		return nil, nil, fmt.Errorf("%w: LSH needs both document collections", ErrMissingInput)
	}
	sc, err := activeLSH(in, opts)
	if err != nil {
		return nil, nil, err
	}
	scorer, err := in.scorer(opts)
	if err != nil {
		return nil, nil, err
	}
	stats := &Stats{Algorithm: LSH, InnerDocs: in.Inner.NumDocs()}
	stats.LSH.Enabled = true
	budget, slotBytes, err := hhnlBatchBytes(in, opts)
	if err != nil {
		return nil, nil, err
	}
	gen := newLSHCandidates(sc, in)
	keep := func(id uint32) bool { return gen.keep[id] }
	return joinBatched(in, opts, workers, budget, slotBytes, stats, batchKernel{
		fillSpan: "lsh.fill-batch", candSpan: "lsh.candidates",
		scanSpan: "lsh.verify-scan", flushSpan: "lsh.flush-batch",
		// Probe the buckets with every resident outer document's band
		// keys, building the per-inner-document candidate lists and the
		// keep vector for the filtered verify scan. The lists are
		// read-only while the scan runs.
		candidates: func(batch []*document.Document) (func(uint32) bool, error) {
			return keep, gen.generate(batch, stats)
		},
		// Verify: score each candidate inner document against exactly
		// the resident outer documents it collided with.
		score: func(batch []*document.Document, d1 *document.Document, ts []*topk.TopK, c *scanCounts) {
			for _, i := range gen.lists[d1.ID] {
				ts[i].Offer(d1.ID, scorer.Score(batch[i], d1))
			}
			c.comparisons += int64(len(gen.lists[d1.ID]))
		},
	})
}

// activeLSH validates Options.LSH against the inputs. A sidecar that
// does not match its collection is an error: band keys computed over a
// different layout would bucket the wrong documents.
func activeLSH(in Inputs, opts Options) (*lsh.Sidecar, error) {
	sc := opts.LSH
	if sc == nil {
		return nil, fmt.Errorf("%w: LSH needs the inner MinHash sidecar", ErrMissingInput)
	}
	if in.Inner != nil && int64(sc.NumDocs()) != in.Inner.NumDocs() {
		return nil, fmt.Errorf("core: LSH sidecar covers %d docs, collection has %d — rebuild the sidecar",
			sc.NumDocs(), in.Inner.NumDocs())
	}
	return sc, nil
}

// lshCandidates owns the per-batch candidate state, reused across
// batches: for each inner document, the batch indices of the resident
// outer documents it must be verified against, plus the keep vector the
// filtered scan consumes.
type lshCandidates struct {
	sc    *lsh.Sidecar
	in    Inputs
	lists [][]int32 // inner id → batch indices, ascending
	keep  []bool
	stamp []int // inner id → last outer probe that added it
	probe int
	keys  []uint64
}

func newLSHCandidates(sc *lsh.Sidecar, in Inputs) *lshCandidates {
	n := int(in.Inner.NumDocs())
	g := &lshCandidates{
		sc:    sc,
		in:    in,
		lists: make([][]int32, n),
		keep:  make([]bool, n),
		stamp: make([]int, n),
	}
	for i := range g.stamp {
		g.stamp[i] = -1
	}
	return g
}

// generate probes the buckets with every batch document's band keys.
// Each (outer, inner) pair appends exactly once (bands are deduplicated
// with a stamp per outer probe), in ascending batch order within each
// inner list, so the verify order — and with it every tracker's Offer
// order — is deterministic. Skip counters accrue into st.
func (g *lshCandidates) generate(batch []*document.Document, st *Stats) error {
	cfg := g.sc.Config()
	for id := range g.lists {
		g.lists[id] = g.lists[id][:0]
		g.keep[id] = false
	}
	for i, d2 := range batch {
		g.keys = cfg.Keys(d2, g.keys)
		g.probe++
		for b, key := range g.keys {
			st.LSH.BucketProbes++
			for _, id := range g.sc.Bucket(b, key) {
				if g.stamp[id] != g.probe {
					g.stamp[id] = g.probe
					g.lists[id] = append(g.lists[id], int32(i))
					g.keep[id] = true
					st.LSH.Candidates++
				}
			}
		}
	}
	kept := 0
	for _, k := range g.keep {
		if k {
			kept++
		}
	}
	st.LSH.DocsSkipped += int64(len(g.keep) - kept)
	touched, err := touchedPages(g.in.Inner, g.keep)
	if err != nil {
		return err
	}
	st.LSH.PagesSkipped += g.in.Inner.File().Pages() - touched
	return nil
}

// measureLSH probes the sidecar's resident bucket tables for the
// planner: candidate volume and scan-run counts feed the cost formula,
// the banding shape feeds the recall curve. CPU-only and deterministic.
func measureLSH(sc *lsh.Sidecar) costmodel.LSH {
	candFrac, runs := sc.SelfProbe()
	cfg := sc.Config()
	return costmodel.LSH{
		SidecarPages:  float64(sc.Pages()),
		CandidateFrac: candFrac,
		ScanRuns:      runs,
		Bands:         cfg.Bands,
		Rows:          cfg.Rows,
	}
}

package core

import (
	"fmt"
	"io"
	"strings"

	"textjoin/internal/collection"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
	"textjoin/internal/signature"
	"textjoin/internal/telemetry"
	"textjoin/internal/topk"
)

// JoinHHNL evaluates the join with the Horizontal–Horizontal Nested Loop
// of Section 4.1: read the next X documents of C2 into memory, scan C1,
// and while a C1 document is in memory compute its similarity with every
// resident C2 document, tracking the λ largest similarities per C2
// document.
//
// The batch size X follows the paper's memory policy "letting the outer
// collection use as much memory space as possible":
//
//	X = (B − ⌈S1⌉) / (S2 + 4λ/P)
//
// realized in exact bytes: ⌈S1⌉ pages are reserved to hold one inner
// document, and each outer document charges its packed size plus 4λ bytes
// for its similarity slots.
//
// With Options.Backward the loop order flips (an extension the paper
// defers to the technical report): blocks of C1 are held in memory while
// C2 is scanned once per block, with all C2 trackers kept across blocks.
//
// With Options.Prefilter the inner scan of each batch skips clusters,
// pages and documents whose aggregate signatures are disjoint from the
// batch's OR-signature — a provably zero similarity for every resident
// outer document, so results are byte-identical. The backward variant
// ignores the prefilter (its resident side is the inner collection).
func JoinHHNL(in Inputs, opts Options) ([]Result, *Stats, error) {
	return joinHHNL(in, opts, 1)
}

// JoinHHNLParallel is forward HHNL with the similarity computation fanned
// out over workers (resolveWorkers maps 0 to GOMAXPROCS). The outer batch
// is loaded and the inner collection scanned exactly as with one worker
// (same I/O, same batches); chunks of scanned inner documents go to a
// worker pool, each worker scoring them against the whole resident batch
// into its own trackers, merged per batch.
func JoinHHNLParallel(in Inputs, opts Options, workers int) ([]Result, *Stats, error) {
	if opts.Backward {
		return nil, nil, fmt.Errorf("core: parallel HHNL supports forward order only")
	}
	return joinHHNL(in, opts, resolveWorkers(workers))
}

// joinHHNL is HHNL's one executor; workers ≥ 1, and 1 is the serial
// algorithm.
func joinHHNL(in Inputs, opts Options, workers int) ([]Result, *Stats, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	if in.Outer == nil || in.Inner == nil {
		return nil, nil, fmt.Errorf("%w: HHNL needs both document collections", ErrMissingInput)
	}
	scorer, err := in.scorer(opts)
	if err != nil {
		return nil, nil, err
	}
	if opts.Backward {
		return hhnlBackward(in, opts, scorer)
	}
	budget, slotBytes, err := hhnlBatchBytes(in, opts)
	if err != nil {
		return nil, nil, err
	}
	pf, err := activePrefilter(in, opts)
	if err != nil {
		return nil, nil, err
	}
	stats := &Stats{Algorithm: HHNL, InnerDocs: in.Inner.NumDocs()}
	k := batchKernel{
		fillSpan: "hhnl.fill-batch", candSpan: "hhnl.prefilter",
		scanSpan: "hhnl.inner-scan", flushSpan: "hhnl.flush-batch",
		score: func(batch []*document.Document, d1 *document.Document, ts []*topk.TopK, c *scanCounts) {
			anyHit := false
			for i, d2 := range batch {
				sim := scorer.Score(d2, d1)
				if sim != 0 {
					anyHit = true
				}
				ts[i].Offer(d1.ID, sim)
			}
			c.comparisons += int64(len(batch))
			if !anyHit {
				c.misses++
			}
		},
	}
	// With a prefilter, disqualify inner clusters, pages and documents
	// against the batch's OR-signature before the scan — the filtered
	// scan then never reads the skipped pages.
	if pf != nil {
		stats.Prefilter.Enabled = true
		sigCfg := pf.Inner.Config()
		var (
			q    signature.Sig
			need []bool
		)
		keep := func(id uint32) bool { return need[id] }
		k.candidates = func(batch []*document.Document) (func(uint32) bool, error) {
			var err error
			q = batchSig(sigCfg, batch, q)
			need, err = sidecarNeed(pf.Inner, in.Inner, q, need, &stats.Prefilter)
			return keep, err
		}
	}
	return joinBatched(in, opts, workers, budget, slotBytes, stats, k)
}

// hhnlBatchBytes returns the outer-batch byte budget and the per-document
// overhead for the λ similarity slots.
func hhnlBatchBytes(in Inputs, opts Options) (budget int64, slotBytes int64, err error) {
	pageSize := int64(in.Inner.File().PageSize())
	total := opts.MemoryPages * pageSize
	// Reserve ⌈S1⌉ pages for the resident inner document.
	reserve := iosim.PagesForBytes(int64(in.Inner.AvgDocBytes()+0.999), int(pageSize)) * pageSize
	if reserve == 0 {
		reserve = pageSize
	}
	budget = total - reserve
	slotBytes = 4 * int64(opts.Lambda)
	if budget <= 0 {
		return 0, 0, fmt.Errorf("%w: B=%d pages cannot hold one inner document (%d bytes reserved)",
			ErrInsufficientMemory, opts.MemoryPages, reserve)
	}
	return budget, slotBytes, nil
}

// batchKernel is what tells apart the two batched nested loops, forward
// HHNL and LSH, which otherwise share joinBatched: how a resident outer
// batch picks the inner documents it must see, and how one inner
// document is scored against the batch.
type batchKernel struct {
	// Span names of the four per-batch steps.
	fillSpan, candSpan, scanSpan, flushSpan string
	// candidates runs on the coordinator before the batch's inner scan
	// and returns the scan's keep predicate. A nil candidates scans every
	// inner document.
	candidates func(batch []*document.Document) (keep func(id uint32) bool, err error)
	// score compares inner document d1 with the batch documents it may
	// match, offering each similarity to ts[i] and counting into c. With
	// several workers it runs on their goroutines, so it writes only ts
	// and c.
	score func(batch []*document.Document, d1 *document.Document, ts []*topk.TopK, c *scanCounts)
}

// scanCounts are one worker's tallies over an inner scan.
type scanCounts struct {
	// comparisons counts exact-scorer similarity computations.
	comparisons int64
	// misses counts inner documents that scored zero against the whole
	// batch (the prefilter's false passes).
	misses int64
}

// joinBatched is the executor forward HHNL and LSH share: fill resident
// outer batches under HHNL's memory policy, let the kernel choose the
// inner documents each batch must see, scan those once per batch, and
// score them against the batch.
//
// With one worker this is the serial algorithm: each inner document
// comes from the scan's reuse arena and is scored before the next is
// read, so the hot loop allocates nothing. With more, the coordinator
// still does every read in the same order (same I/O, same Stats) and
// fans the scanned documents out to workers, each scoring into its own
// tracker set; the sets hold disjoint inner documents, so merging them
// reproduces the global top-λ.
func joinBatched(in Inputs, opts Options, workers int, budget, slotBytes int64, stats *Stats, k batchKernel) ([]Result, *Stats, error) {
	track := trackIO(in.Outer.File(), in.Inner.File())
	tel, trace := opts.Telemetry, opts.Trace
	fill := batchFiller{docs: in.Outer.Documents(), side: "outer", budget: budget, slotBytes: slotBytes}

	results := make([]Result, 0, in.Outer.NumDocs())
	for {
		span := startPhase(tel, trace, telemetry.PhaseScan, k.fillSpan)
		batch, used, err := fill.next()
		span.End()
		if err != nil {
			return nil, nil, err
		}
		if len(batch) == 0 {
			break
		}
		stats.Passes++
		stats.OuterDocs += int64(len(batch))
		if used > stats.PeakMemoryBytes {
			stats.PeakMemoryBytes = used
		}

		var scan collection.ReuseIterator
		if k.candidates == nil {
			scan = in.Inner.Scan()
		} else {
			span := startPhase(tel, trace, telemetry.PhaseScan, k.candSpan)
			keep, err := k.candidates(batch)
			span.End()
			if err != nil {
				return nil, nil, err
			}
			scan = in.Inner.ScanFiltered(keep)
		}

		sets := make([][]*topk.TopK, workers)
		for w := range sets {
			sets[w] = make([]*topk.TopK, len(batch))
			for i := range sets[w] {
				sets[w][i] = topk.New(opts.Lambda)
			}
		}
		counts := make([]scanCounts, workers)
		span = startPhase(tel, trace, telemetry.PhaseScore, k.scanSpan)
		if workers == 1 {
			var d1 *document.Document
			for d1, err = scan.NextReuse(); err == nil; d1, err = scan.NextReuse() {
				k.score(batch, d1, sets[0], &counts[0])
			}
			if err == io.EOF {
				err = nil
			}
		} else {
			err = fanOutScan(scan, workers, func(w int, d1 *document.Document) {
				k.score(batch, d1, sets[w], &counts[w])
			})
		}
		span.End()
		if err != nil {
			return nil, nil, err
		}

		span = startPhase(tel, trace, telemetry.PhaseFlush, k.flushSpan)
		for i, d2 := range batch {
			tk := sets[0][i]
			if workers > 1 {
				tk = topk.New(opts.Lambda)
				for _, ts := range sets {
					for _, m := range ts[i].Results() {
						tk.Offer(m.Doc, m.Sim)
					}
				}
			}
			results = append(results, Result{Outer: d2.ID, Matches: tk.Results()})
		}
		span.End()
		for w, c := range counts {
			stats.Comparisons += c.comparisons
			if stats.Prefilter.Enabled {
				stats.Prefilter.FalsePasses += c.misses
			}
			if workers > 1 && tel != nil {
				tel.Counter(fmt.Sprintf("join.%s.worker.%d.comparisons",
					strings.ToLower(stats.Algorithm.String()), w)).Add(c.comparisons)
			}
		}
	}
	stats.IO = track.delta()
	stats.Cost = stats.IO.Cost(alpha(in.Inner.File()))
	recordJoinStats(tel, stats)
	return results, stats, nil
}

// batchFiller reads documents into resident batches under a byte budget:
// each document charges its packed size plus slotBytes, and the document
// that would overflow a non-empty batch opens the next one. Batch
// documents come from the allocating Next, so they stay valid while
// their batch is resident.
type batchFiller struct {
	docs      collection.DocIterator
	side      string // "outer" or "inner", for the oversize error
	budget    int64
	slotBytes int64
	pending   *document.Document // first document of the next batch
	done      bool
}

// next returns the next batch and the bytes it charges. An empty batch
// means the documents are exhausted.
func (f *batchFiller) next() ([]*document.Document, int64, error) {
	var batch []*document.Document
	var used int64
	for !f.done {
		d := f.pending
		f.pending = nil
		if d == nil {
			var err error
			if d, err = f.docs.Next(); err == io.EOF {
				f.done = true
				break
			} else if err != nil {
				return nil, 0, err
			}
		}
		cost := d.EncodedSize() + f.slotBytes
		if used+cost > f.budget {
			if len(batch) > 0 {
				f.pending = d
				break
			}
			return nil, 0, fmt.Errorf("%w: %s document %d (%d bytes) exceeds the batch budget %d",
				ErrInsufficientMemory, f.side, d.ID, cost, f.budget)
		}
		batch = append(batch, d)
		used += cost
	}
	return batch, used, nil
}

func hhnlBackward(in Inputs, opts Options, scorer *document.Scorer) ([]Result, *Stats, error) {
	stats := &Stats{Algorithm: HHNL, InnerDocs: in.Inner.NumDocs()}
	// Swap roles for batch sizing: blocks of C1 are resident, one C2
	// document at a time streams past, and every C2 document keeps a λ
	// tracker alive for the whole join.
	pageSize := int64(in.Inner.File().PageSize())
	total := opts.MemoryPages * pageSize
	reserve := iosim.PagesForBytes(int64(in.Outer.AvgDocBytes()+0.999), int(pageSize)) * pageSize
	if reserve == 0 {
		reserve = pageSize
	}
	trackerBytes := 4 * int64(opts.Lambda) * in.Outer.NumDocs()
	budget := total - reserve - trackerBytes
	if budget <= 0 {
		return nil, nil, fmt.Errorf("%w: B=%d pages cannot hold the %d outer trackers plus one outer document",
			ErrInsufficientMemory, opts.MemoryPages, in.Outer.NumDocs())
	}
	track := trackIO(in.Outer.File(), in.Inner.File())
	tel, trace := opts.Telemetry, opts.Trace

	trackers := make(map[uint32]*topk.TopK)
	var order []uint32
	fill := batchFiller{docs: in.Inner.Scan(), side: "inner", budget: budget}
	for {
		span := startPhase(tel, trace, telemetry.PhaseScan, "hhnl.backward.fill-batch")
		batch, used, err := fill.next()
		span.End()
		if err != nil {
			return nil, nil, err
		}
		if len(batch) == 0 {
			break
		}
		stats.Passes++
		if used+trackerBytes > stats.PeakMemoryBytes {
			stats.PeakMemoryBytes = used + trackerBytes
		}

		// The streamed outer side is consumed one document at a time, so
		// the reuse path applies (the resident inner batch, by contrast,
		// is built from stable Next documents above).
		score := startPhase(tel, trace, telemetry.PhaseScore, "hhnl.backward.outer-scan")
		outerIt := in.Outer.Documents()
		for {
			d2, err := collection.NextReuse(outerIt)
			if err == io.EOF {
				break
			}
			if err != nil {
				score.End()
				return nil, nil, err
			}
			tk := trackers[d2.ID]
			if tk == nil {
				tk = topk.New(opts.Lambda)
				trackers[d2.ID] = tk
				order = append(order, d2.ID)
			}
			if stats.Passes == 1 {
				stats.OuterDocs++
			}
			for _, d1 := range batch {
				sim := scorer.Score(d2, d1)
				stats.Comparisons++
				tk.Offer(d1.ID, sim)
			}
		}
		score.End()
	}
	if stats.Passes == 0 {
		// Empty inner collection: every outer document still yields a
		// result row, with no matches.
		outerIt := in.Outer.Documents()
		for {
			d2, err := collection.NextReuse(outerIt)
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, nil, err
			}
			order = append(order, d2.ID)
			trackers[d2.ID] = topk.New(opts.Lambda)
			stats.OuterDocs++
		}
	}
	flush := startPhase(tel, trace, telemetry.PhaseFinalize, "hhnl.backward.finalize")
	results := make([]Result, 0, len(order))
	for _, id := range order {
		results = append(results, Result{Outer: id, Matches: trackers[id].Results()})
	}
	flush.End()
	stats.IO = track.delta()
	stats.Cost = stats.IO.Cost(alpha(in.Inner.File()))
	recordJoinStats(tel, stats)
	return results, stats, nil
}

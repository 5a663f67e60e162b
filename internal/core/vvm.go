package core

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"textjoin/internal/accum"
	"textjoin/internal/codec"
	"textjoin/internal/collection"
	"textjoin/internal/document"
	"textjoin/internal/invfile"
	"textjoin/internal/iosim"
	"textjoin/internal/telemetry"
	"textjoin/internal/topk"
)

// JoinVVM evaluates the join with the Vertical–Vertical Merge of Section
// 4.3: scan the inverted files on both collections in parallel (they are
// stored in ascending term-number order, so one scan of each suffices,
// "very much like the merge phase of sort merge") and, whenever two
// entries carry the same term, accumulate u·v into the similarity of every
// document pair the two entries span.
//
// The memory needed for intermediate similarities is proportional to
// N1·N2; following the paper's extension, when the estimated accumulator
// size SM = 4·δ·N1·N2 bytes exceeds the available memory
// M = (B − ⌈J1⌉ − ⌈J2⌉)·P, the outer collection is divided into ⌈SM/M⌉
// ranges and both inverted files are re-scanned once per range.
//
// The per-pass similarity store is an accum.Accumulator: a dense
// range×N1 matrix when it fits M, an open-addressing table otherwise —
// never a Go map, whose hashing dominated the accumulation hot loop.
// A memory-resident query batch cannot be the outer side: it has no
// inverted file.
//
// When Inputs.Outer is a selection subset, only i-cells of its documents
// accumulate — but the inverted files are still scanned in full, the
// paper's point that "the sizes of the inverted files will remain the same
// even if the number of documents ... can be reduced by a selection".
func JoinVVM(in Inputs, opts Options) ([]Result, *Stats, error) {
	return joinVVM(in, opts, 1)
}

// JoinVVMParallel is VVM with the per-term accumulation fanned out by
// outer-document ownership (resolveWorkers maps 0 to GOMAXPROCS). Worker
// w owns a contiguous block of the pass's outer-id ranks, so the
// merge-scan goroutine (still one sequential sweep of each inverted file
// per pass, exactly as with one worker) splits each outer entry's cell
// list by owner with binary searches and routes each worker only its own
// sub-slice — no worker ever scans cells it does not own. Each worker
// accumulates into its own shard (dense rows or an open-addressing table,
// by the same regime choice) and emits the results for its rank block,
// so the finalize/top-λ step parallelizes too. Partitioning (⌈SM/M⌉
// passes) is unchanged.
func JoinVVMParallel(in Inputs, opts Options, workers int) ([]Result, *Stats, error) {
	return joinVVM(in, opts, resolveWorkers(workers))
}

// joinVVM is VVM's one executor; workers ≥ 1, and 1 is the serial
// algorithm.
func joinVVM(in Inputs, opts Options, workers int) ([]Result, *Stats, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	if in.InnerInv == nil || in.OuterInv == nil || in.Outer == nil || in.Inner == nil {
		return nil, nil, fmt.Errorf("%w: VVM needs both inverted files and both collections' statistics", ErrMissingInput)
	}
	if in.Outer.Base() == nil {
		// A memory-resident query batch has no inverted file — the
		// paper's point that "the availability of inverted files means
		// the applicability of certain algorithms".
		return nil, nil, fmt.Errorf("%w: VVM needs a stored outer collection, not a query batch", ErrMissingInput)
	}
	scorer, err := in.scorer(opts)
	if err != nil {
		return nil, nil, err
	}

	outerIDs, passes, passBytes, err := vvmPlan(in, opts)
	if err != nil {
		return nil, nil, err
	}
	n1 := int(in.Inner.NumDocs())
	stats := &Stats{Algorithm: VVM, InnerDocs: int64(n1), OuterDocs: int64(len(outerIDs))}
	files := []*iosim.File{in.InnerInv.File(), in.OuterInv.File()}
	for _, inv := range []*invfile.InvertedFile{in.InnerInv, in.OuterInv} {
		if inv.Tree() != nil {
			files = append(files, inv.Tree().File())
		}
	}
	track := trackIO(files...)
	tel, trace := opts.Telemetry, opts.Trace
	occupancy := tel.Histogram("vvm.accum.occupancy", telemetry.DefaultSizeBuckets)

	// Pass p joins the outer ids [p·N2/passes, (p+1)·N2/passes): never
	// empty, since passes ≤ N2.
	results := make([]Result, len(outerIDs))
	for p := 0; p < passes; p++ {
		lo, hi := p*len(outerIDs)/passes, (p+1)*len(outerIDs)/passes
		ids := outerIDs[lo:hi]
		stats.Passes++
		pass := newVVMPass(ids, workers, n1, passBytes)
		pass.out = results[lo:hi]
		if tel != nil {
			tel.Counter("join.vvm.accum." + pass.shards[0].acc.Kind()).Add(1)
		}

		merge := startPhase(tel, trace, telemetry.PhaseMerge, "vvm.merge-scan")
		if workers == 1 {
			// Accumulate inline: the scanners' reuse arenas suffice,
			// since each entry pair is consumed before the next is read.
			sh := &pass.shards[0]
			err = mergeScan(in.InnerInv, in.OuterInv, true, func(term uint32, e1, e2 *invfile.Entry) {
				if factor := scorer.TermFactor(term); factor != 0 {
					sh.accumulations += accumulateTerm(sh.acc, pass.set, 0, factor, e1.Cells, e2.Cells)
				}
			})
			merge.End()
			if err == nil {
				finalize := startPhase(tel, trace, telemetry.PhaseFinalize, "vvm.emit-range")
				pass.emit(sh, opts.Lambda, scorer)
				finalize.End()
			}
		} else {
			err = pass.fanOut(in, scorer, opts.Lambda)
			merge.End()
		}
		if err != nil {
			return nil, nil, err
		}

		var memBytes, cells int64
		for w, sh := range pass.shards {
			stats.Accumulations += sh.accumulations
			memBytes += sh.acc.Bytes()
			if occupancy != nil {
				cells += int64(sh.acc.Len())
			}
			if workers > 1 && tel != nil {
				tel.Counter(fmt.Sprintf("join.vvm.worker.%d.accumulations", w)).Add(sh.accumulations)
			}
		}
		if memBytes > stats.PeakMemoryBytes {
			stats.PeakMemoryBytes = memBytes
		}
		occupancy.Observe(cells)
	}

	stats.IO = track.delta()
	stats.Cost = stats.IO.Cost(alpha(in.InnerInv.File()))
	recordJoinStats(tel, stats)
	return results, stats, nil
}

// vvmPass is one partition's accumulation state, split into owner
// shards over the pass's ascending outer ids.
type vvmPass struct {
	ids    []uint32
	set    *accum.IDSet // rank of each outer id in ids
	shards []vvmShard
	out    []Result // the pass's result rows, by rank
}

// vvmShard owns the contiguous rank block [lo, hi) of its pass; its
// accumulator numbers rows from lo.
type vvmShard struct {
	lo, hi        int
	acc           accum.Accumulator
	accumulations int64
}

// newVVMPass splits ids into shards rank blocks, each with an
// accumulator of the regime the whole pass fits: dense rows when the
// pass's full matrix fits budget, an open-addressing table otherwise —
// never a Go map.
func newVVMPass(ids []uint32, shards, n1 int, budget int64) *vvmPass {
	p := &vvmPass{ids: ids, set: accum.NewIDSet(ids), shards: make([]vvmShard, shards)}
	dense := accum.UseDense(len(ids), n1, budget)
	for w := range p.shards {
		sh := &p.shards[w]
		sh.lo, sh.hi = w*len(ids)/shards, (w+1)*len(ids)/shards
		if dense {
			sh.acc = accum.NewDense(sh.hi-sh.lo, n1)
		} else {
			sh.acc = accum.NewTable(0)
		}
	}
	return p
}

// accumulateTerm adds one common term's contribution to acc: for every
// outer cell whose document is in set, with rank r, it adds u·v for each
// inner cell to row r−rowBase. It returns the number of accumulations.
func accumulateTerm(acc accum.Accumulator, set *accum.IDSet, rowBase int, factor float64, inner, outer []codec.Cell) int64 {
	var n int64
	for _, c2 := range outer {
		rank, ok := set.Rank(c2.Number)
		if !ok {
			continue
		}
		v := float64(c2.Weight) * factor
		row := rank - rowBase
		for _, c1 := range inner {
			acc.Add(row, c1.Number, float64(c1.Weight)*v)
		}
		n += int64(len(inner))
	}
	return n
}

// emit writes shard sh's result rows: the λ best matches of every outer
// document in its block, including documents with no non-zero
// similarity. Shards write disjoint rows, so workers need no locking.
func (p *vvmPass) emit(sh *vvmShard, lambda int, scorer *document.Scorer) {
	ids, out := p.ids[sh.lo:sh.hi], p.out[sh.lo:sh.hi]
	trackers := make([]*topk.TopK, len(ids))
	sh.acc.ForEach(func(row int, inner uint32, raw float64) {
		tk := trackers[row]
		if tk == nil {
			tk = topk.New(lambda)
			trackers[row] = tk
		}
		tk.Offer(inner, scorer.Finalize(ids[row], inner, raw))
	})
	for row, tk := range trackers {
		var matches []Match
		if tk != nil {
			matches = tk.Results()
		}
		out[row] = Result{Outer: ids[row], Matches: matches}
	}
}

// vvmTermWork is one shard's share of a common-term entry pair: the
// shard-owned contiguous sub-slice of the outer entry's i-cells, plus
// the shared (read-only) inner entry's cells.
type vvmTermWork struct {
	factor float64
	inner  []codec.Cell
	outer  []codec.Cell
}

// fanOut runs the pass with one worker goroutine per shard. The
// merge-scan stays on the calling goroutine and routes each common-term
// pair: both the entry's cells and the rank blocks ascend by document
// number, so one forward sweep with a binary search per block boundary
// splits the cell list. Each worker emits its block once its channel
// drains.
func (p *vvmPass) fanOut(in Inputs, scorer *document.Scorer, lambda int) error {
	chans := make([]chan vvmTermWork, len(p.shards))
	var wg sync.WaitGroup
	for w := range chans {
		// The buffer lets the merge-scan run ahead of a shard whose
		// terms are momentarily heavier than its neighbours'.
		chans[w] = make(chan vvmTermWork, 128)
		wg.Add(1)
		go func(sh *vvmShard, work <-chan vvmTermWork) {
			defer wg.Done()
			var n int64 // a local tally: neighbouring shards share cache lines
			for tw := range work {
				n += accumulateTerm(sh.acc, p.set, sh.lo, tw.factor, tw.inner, tw.outer)
			}
			sh.accumulations = n
			p.emit(sh, lambda, scorer)
		}(&p.shards[w], chans[w])
	}
	// Routed entries outlive the callback inside worker channels, so the
	// merge-scan must yield stable entries (reuse=false).
	err := mergeScan(in.InnerInv, in.OuterInv, false, func(term uint32, e1, e2 *invfile.Entry) {
		factor := scorer.TermFactor(term)
		if factor == 0 {
			return
		}
		cells := e2.Cells
		i := 0
		for w, sh := range p.shards {
			if i == len(cells) {
				break
			}
			if sh.lo == sh.hi {
				continue
			}
			loID, hiID := p.ids[sh.lo], p.ids[sh.hi-1]
			start := i + sort.Search(len(cells)-i, func(k int) bool { return cells[i+k].Number >= loID })
			end := start + sort.Search(len(cells)-start, func(k int) bool { return cells[start+k].Number > hiID })
			i = end
			if start < end {
				chans[w] <- vvmTermWork{factor: factor, inner: e1.Cells, outer: cells[start:end]}
			}
		}
	})
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	return err
}

// vvmPlan partitions the join: the outer ids (always ascending — 0..N2-1
// for a full collection, Subset.IDs order for a selection), the pass
// count ⌈SM/M⌉ (at most one pass per outer document) and the per-pass
// accumulator budget M in bytes.
func vvmPlan(in Inputs, opts Options) (outerIDs []uint32, passes int, mBytes int64, err error) {
	if sub, ok := in.Outer.(*collection.Subset); ok {
		outerIDs = sub.IDs()
	} else {
		outerIDs = make([]uint32, in.Outer.NumDocs())
		for i := range outerIDs {
			outerIDs[i] = uint32(i)
		}
	}

	pageSize := int64(in.InnerInv.File().PageSize())
	smBytes := int64(4 * opts.Delta * float64(in.Inner.NumDocs()) * float64(len(outerIDs)))
	j1Pages := iosim.PagesForBytes(int64(in.InnerInv.Stats().J*float64(pageSize)+0.999), int(pageSize))
	j2Pages := iosim.PagesForBytes(int64(in.OuterInv.Stats().J*float64(pageSize)+0.999), int(pageSize))
	mBytes = opts.MemoryPages*pageSize - (j1Pages+j2Pages)*pageSize
	if mBytes <= 0 {
		return nil, 0, 0, fmt.Errorf("%w: B=%d pages cannot hold one inverted entry from each file", ErrInsufficientMemory, opts.MemoryPages)
	}
	passes = 1
	if smBytes > mBytes {
		passes = int((smBytes + mBytes - 1) / mBytes)
	}
	if passes > len(outerIDs) {
		passes = len(outerIDs)
	}
	return outerIDs, passes, mBytes, nil
}

// mergeScan runs one parallel scan over both inverted files, invoking fn
// for every term present in both (e1 from inner/C1, e2 from outer/C2).
//
// With reuse, entries are yielded from the scanners' arenas and are valid
// only for the duration of fn (one-worker VVM accumulates them
// immediately); callers whose fn retains entries or sub-slices of their
// cells — VVM's fan-out routes them across worker channels — must pass
// reuse=false to get stable, freshly allocated entries.
func mergeScan(inner, outer *invfile.InvertedFile, reuse bool, fn func(term uint32, e1, e2 *invfile.Entry)) error {
	s1 := inner.Scan()
	s2 := outer.Scan()
	next1, next2 := s1.Next, s2.Next
	if reuse {
		next1, next2 = s1.NextReuse, s2.NextReuse
	}
	e1, err1 := next1()
	e2, err2 := next2()
	for err1 == nil && err2 == nil {
		switch {
		case e1.Term < e2.Term:
			e1, err1 = next1()
		case e1.Term > e2.Term:
			e2, err2 = next2()
		default:
			fn(e1.Term, e1, e2)
			e1, err1 = next1()
			e2, err2 = next2()
		}
	}
	// Drain the longer file so both scans cost their full sequential
	// sweep, as the paper's one-scan cost I1 + I2 assumes. Drained
	// entries are discarded, so the reuse path always applies.
	for err1 == nil {
		_, err1 = s1.NextReuse()
	}
	for err2 == nil {
		_, err2 = s2.NextReuse()
	}
	if err1 != io.EOF {
		return err1
	}
	if err2 != io.EOF {
		return err2
	}
	return nil
}

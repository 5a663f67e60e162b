package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"time"

	"textjoin"
)

// probe times fn, one call per repetition wrapped in a "layer.<name>"
// span, until minTime has passed (at least 5 and at most 2000
// repetitions). fn returns how many units of work it did; the result is
// the median time per unit in microseconds.
func probe(log *spanLog, name string, minTime time.Duration, fn func() (int, error)) (float64, error) {
	var per []float64
	start := time.Now()
	for len(per) < 5 || (len(per) < 2000 && time.Since(start) < minTime) {
		sp := log.start("layer." + name)
		t0 := time.Now()
		n, err := fn()
		d := time.Since(t0)
		log.finish(sp)
		if err != nil {
			return 0, err
		}
		per = append(per, float64(d.Nanoseconds())/1e3/float64(max(n, 1)))
	}
	return median(per), nil
}

// drain reads an iterator to its end with next and returns the count.
func drain[T any](next func() (T, error)) (int, error) {
	n := 0
	for {
		_, err := next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// layerProbes times the storage and planning layers from outside,
// through their public methods, on a workload's built inputs: a page
// read, a full collection scan and decode, an inverted-file entry fetch
// and full scan, the planner's choice and a persistence round trip.
func layerProbes(env *joinEnv, log *spanLog, m map[string]float64) error {
	const minTime = 150 * time.Millisecond
	var err error
	f, pages := env.c1.File(), env.c1.Stats().D
	if m["iosim.read_us_per_page"], err = probe(log, "iosim.read", minTime, func() (int, error) {
		f.ParkHead()
		for p := int64(0); p < pages; p++ {
			if _, err := f.ReadPage(p); err != nil {
				return 0, err
			}
		}
		return int(pages), nil
	}); err != nil {
		return err
	}
	scanUs, err := probe(log, "collection.scan", minTime, func() (int, error) {
		_, err := drain(env.c1.Scan().NextReuse)
		return 1, err
	})
	if err != nil {
		return err
	}
	m["collection.scan_ms"] = scanUs / 1e3

	terms := env.c1.Terms()
	step := max(1, len(terms)/512)
	if m["invfile.fetch_entry_us"], err = probe(log, "invfile.fetch", minTime, func() (int, error) {
		n := 0
		for i := 0; i < len(terms); i += step {
			if _, err := env.inv1.FetchEntry(terms[i]); err != nil {
				return 0, err
			}
			n++
		}
		return n, nil
	}); err != nil {
		return err
	}
	invUs, err := probe(log, "invfile.scan", minTime, func() (int, error) {
		_, err := drain(env.inv1.Scan().NextReuse)
		return 1, err
	})
	if err != nil {
		return err
	}
	m["invfile.scan_ms"] = invUs / 1e3

	opts := textjoin.Options{Lambda: env.lambda, MemoryPages: env.mem}
	if env.autoPF {
		opts.Prefilter = env.pf
	}
	if m["costmodel.choose_us"], err = probe(log, "costmodel.choose", minTime, func() (int, error) {
		_, err := textjoin.Choose(env.inputs(), opts)
		return 1, err
	}); err != nil {
		return err
	}

	if env.saveMs == 0 {
		// Workloads whose setup does not persist time the round trip here.
		var saves, loads []float64
		n1, n2 := env.c1.Stats().N, env.c2.Stats().N
		for i := 0; i < 3; i++ {
			var buf bytes.Buffer
			sp := log.start("layer.persist")
			t0 := time.Now()
			if _, err := env.ws.Save(&buf); err != nil {
				return err
			}
			saves = append(saves, msSince(t0))
			t0 = time.Now()
			var scratch joinEnv
			if err := scratch.open(&buf, n1, n2); err != nil {
				return err
			}
			loads = append(loads, msSince(t0))
			log.finish(sp)
		}
		m["persist.save_ms"], m["persist.load_ms"] = median(saves), median(loads)
	}
	env.ws.ResetIOStats()
	return nil
}

// joinLayerMetrics derives the per-layer rows of a traced run from its
// ops: timings from the untraced copies, phase self times and the
// tracing overhead from the traced ones.
func joinLayerMetrics(rounds [][]op, log *spanLog, m map[string]float64) {
	walls := map[string][]float64{}
	var n, comparisons, accumulations, passes, seq, rnd float64
	var hits, lookups, evictions, hvnlOps float64
	var skipped, pfRead, falsePass, docsSkipped float64
	var candidates, lshDocs, lshMatches float64
	var estErr []float64
	var tracedWall, plainWall, tracedOps float64
	for _, round := range rounds {
		for _, o := range round {
			ms := float64(o.wall.Nanoseconds()) / 1e6
			if o.traced {
				tracedWall += ms
				tracedOps++
				continue
			}
			plainWall += ms
			walls[o.entry] = append(walls[o.entry], ms)
			st := o.st
			n++
			comparisons += float64(st.Comparisons)
			accumulations += float64(st.Accumulations)
			passes += float64(st.Passes)
			seq += float64(st.IO.SeqReads)
			rnd += float64(st.IO.RandReads)
			switch o.entry {
			case "hvnl", "hvnl-w2", "hvnl-pf":
				hvnlOps++
				hits += float64(st.Cache.Hits)
				lookups += float64(st.Cache.Hits + st.Cache.Misses)
				evictions += float64(st.Cache.Evictions)
			case "lsh":
				candidates += float64(st.LSH.Candidates)
				lshDocs += float64(st.OuterDocs)
				lshMatches += float64(o.matches)
			case "auto":
				estErr = append(estErr, estimateError(o.dec, st.Cost))
			}
			if st.Prefilter.Enabled {
				skipped += float64(st.Prefilter.PagesSkipped)
				pfRead += float64(st.IO.SeqReads + st.IO.RandReads)
				falsePass += float64(st.Prefilter.FalsePasses)
				docsSkipped += float64(st.Prefilter.DocsSkipped)
			}
		}
	}
	fastestExact := math.Inf(1)
	for _, e := range allEntries {
		med := median(walls[e])
		m["core.join_ms."+e] = med
		if e != "lsh" && e != "auto" && med > 0 {
			fastestExact = min(fastestExact, med)
		}
	}
	for _, a := range []string{"hhnl", "hvnl", "vvm"} {
		m["core.speedup."+a] = ratio(m["core.join_ms."+a], m["core.join_ms."+a+"-w2"])
	}
	m["core.comparisons_per_op"] = ratio(comparisons, n)
	m["core.accumulations_per_op"] = ratio(accumulations, n)
	m["core.passes_per_op"] = ratio(passes, n)
	m["iosim.seq_pages_per_op"] = ratio(seq, n)
	m["iosim.rand_pages_per_op"] = ratio(rnd, n)
	m["entrycache.hit_rate"] = ratio(hits, lookups)
	m["entrycache.evictions_per_op"] = ratio(evictions, hvnlOps)
	m["signature.pages_skipped_frac"] = ratio(skipped, skipped+pfRead)
	m["signature.false_pass_frac"] = ratio(falsePass, falsePass+docsSkipped)
	m["lsh.candidates_per_doc"] = ratio(candidates, lshDocs)
	m["lsh.verify_yield"] = ratio(lshMatches, candidates)
	m["costmodel.plan_regret"] = ratio(m["core.join_ms.auto"], fastestExact)
	m["costmodel.est_error_log2"] = median(estErr)
	self := log.selfByPhase("op")
	for _, p := range corePhases {
		m["core.phase_self_ms."+p] = ratio(self[p], tracedOps)
	}
	m["trace.overhead_frac"] = ratio(tracedWall, plainWall) - 1
}

// estimateError is |log2(measured / estimated)| for the plan the
// integrated planner chose, the estimate being the sequential-cost
// figure the planner ranks by.
func estimateError(dec *textjoin.Decision, measured float64) float64 {
	if dec == nil {
		return 0
	}
	for _, e := range dec.Estimates {
		if e.Algorithm.String() == dec.Chosen.String() && e.Prefiltered == dec.Prefiltered && e.Seq > 0 && measured > 0 {
			return math.Abs(math.Log2(measured / e.Seq))
		}
	}
	return 0
}

// ratio is a/b, or 0 when b is 0.
func ratio[T int | float64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

package telemetry

// Diff returns the change from prev to s as a new Snapshot: counter
// deltas and per-bucket histogram deltas. It is the primitive behind
// scrape-to-scrape rate computation in the metrics exporter.
//
// Snapshots are compared by name, not by origin, so prev may come from a
// different collector — an earlier process run, a restarted service —
// where raw subtraction would go negative. Diff applies the usual
// monotone-counter reset rule: when a counter (or histogram bucket)
// is smaller than it was in prev, the source is assumed to have
// restarted and the full current value counts as the delta. Counters
// that exist only in prev are dropped (they no longer exist); counters
// that exist only in s are reported whole.
//
// The result preserves Snapshot's ordering invariant (counters and
// histograms sorted by name), so a Diff is itself a valid Snapshot for
// any Sink.
func (s *Snapshot) Diff(prev *Snapshot) *Snapshot {
	if s == nil {
		return &Snapshot{}
	}
	out := &Snapshot{}
	if prev == nil {
		prev = &Snapshot{}
	}

	prevCounters := make(map[string]int64, len(prev.Counters))
	for _, c := range prev.Counters {
		prevCounters[c.Name] = c.Value
	}
	for _, c := range s.Counters {
		d := c.Value
		if pv, ok := prevCounters[c.Name]; ok && pv <= c.Value {
			d = c.Value - pv
		}
		out.Counters = append(out.Counters, CounterValue{Name: c.Name, Value: d})
	}

	prevHists := make(map[string]HistogramValue, len(prev.Histograms))
	for _, h := range prev.Histograms {
		prevHists[h.Name] = h
	}
	for _, h := range s.Histograms {
		out.Histograms = append(out.Histograms, diffHistogram(h, prevHists))
	}
	return out
}

// diffHistogram subtracts prev's same-named histogram bucket by bucket.
// A histogram with different bounds or any shrunken bucket is treated as
// new (reset rule): the current values are the delta.
func diffHistogram(h HistogramValue, prev map[string]HistogramValue) HistogramValue {
	out := HistogramValue{Name: h.Name, Count: h.Count, Sum: h.Sum}
	out.Buckets = make([]Bucket, len(h.Buckets))
	copy(out.Buckets, h.Buckets)

	p, ok := prev[h.Name]
	if !ok || len(p.Buckets) != len(h.Buckets) {
		return out
	}
	for i, b := range h.Buckets {
		if p.Buckets[i].Le != b.Le || p.Buckets[i].Count > b.Count {
			return out
		}
	}
	if p.Sum > h.Sum || p.Count > h.Count {
		return out
	}
	for i := range out.Buckets {
		out.Buckets[i].Count -= p.Buckets[i].Count
	}
	out.Sum -= p.Sum
	out.Count -= p.Count
	return out
}

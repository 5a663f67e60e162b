package telemetry

import (
	"strings"
	"testing"
)

func TestDiffCounters(t *testing.T) {
	c := New()
	c.Counter("a").Add(3)
	c.Counter("b").Add(10)
	prev := c.Snapshot()

	c.Counter("a").Add(4)
	c.Counter("c").Add(1)
	cur := c.Snapshot()

	d := cur.Diff(prev)
	want := map[string]int64{"a": 4, "b": 0, "c": 1}
	if len(d.Counters) != len(want) {
		t.Fatalf("got %d counters, want %d", len(d.Counters), len(want))
	}
	for _, cv := range d.Counters {
		if want[cv.Name] != cv.Value {
			t.Errorf("counter %s: got %d, want %d", cv.Name, cv.Value, want[cv.Name])
		}
	}
}

// TestDiffAcrossRuns pins the reset rule: a counter smaller than in prev
// (a fresh collector in a new run) reports its full current value, never
// a negative delta.
func TestDiffAcrossRuns(t *testing.T) {
	old := New()
	old.Counter("a").Add(100)
	old.Counter("gone").Add(5)
	old.Histogram("h", []int64{1, 2}).Observe(1)
	old.Histogram("h", []int64{1, 2}).Observe(1)
	prev := old.Snapshot()

	fresh := New()
	fresh.Counter("a").Add(7)
	fresh.Histogram("h", []int64{1, 2}).Observe(2)
	cur := fresh.Snapshot()

	d := cur.Diff(prev)
	if len(d.Counters) != 1 || d.Counters[0].Name != "a" || d.Counters[0].Value != 7 {
		t.Fatalf("reset counter delta: got %+v, want a=7 only", d.Counters)
	}
	h := d.Histograms[0]
	// Bucket counts shrank (le=1 went 2 -> 0), so the histogram is
	// treated as new: current values pass through.
	if h.Count != 1 || h.Sum != 2 {
		t.Fatalf("reset histogram: got count=%d sum=%d, want 1/2", h.Count, h.Sum)
	}
}

func TestDiffHistograms(t *testing.T) {
	c := New()
	h := c.Histogram("h", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	prev := c.Snapshot()

	h.Observe(5)
	h.Observe(500)
	cur := c.Snapshot()

	d := cur.Diff(prev)
	if len(d.Histograms) != 1 {
		t.Fatalf("got %d histograms, want 1", len(d.Histograms))
	}
	dh := d.Histograms[0]
	if dh.Count != 2 || dh.Sum != 505 {
		t.Errorf("delta count=%d sum=%d, want 2/505", dh.Count, dh.Sum)
	}
	wantBuckets := []int64{1, 0, 1} // le=10: one new 5; le=100: none; +Inf: the 500
	for i, b := range dh.Buckets {
		if b.Count != wantBuckets[i] {
			t.Errorf("bucket %d: got %d, want %d", i, b.Count, wantBuckets[i])
		}
	}
}

// TestDiffIsValidSnapshot pins that a Diff round-trips through the JSON
// sink and its validator: rate computation and export share one schema.
func TestDiffIsValidSnapshot(t *testing.T) {
	c := New()
	c.Counter("x").Add(1)
	c.Histogram("h", DefaultSizeBuckets).Observe(3)
	prev := c.Snapshot()
	c.Counter("x").Add(2)
	c.Histogram("h", DefaultSizeBuckets).Observe(9)
	d := c.Snapshot().Diff(prev)

	var sb strings.Builder
	if err := (JSONSink{}).Export(&sb, d); err != nil {
		t.Fatal(err)
	}
	if err := ValidateJSON([]byte(sb.String())); err != nil {
		t.Fatalf("diff snapshot fails the exporter schema: %v", err)
	}
}

func TestDiffNil(t *testing.T) {
	var s *Snapshot
	if d := s.Diff(nil); len(d.Counters) != 0 || len(d.Histograms) != 0 {
		t.Fatalf("nil diff not empty: %+v", d)
	}
	c := New()
	c.Counter("a").Add(2)
	if d := c.Snapshot().Diff(nil); len(d.Counters) != 1 || d.Counters[0].Value != 2 {
		t.Fatalf("diff against nil should pass values through: %+v", d)
	}
}

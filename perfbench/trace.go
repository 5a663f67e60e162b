package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"

	"textjoin"
)

// corePhases are the phase labels the join core puts on its spans.
var corePhases = []string{"setup", "scan", "probe", "score", "flush", "merge", "finalize", "plan"}

// spanLog is the traced run's span store: every op and every timed layer
// call is one trace from the facade's request tracer, kept in memory
// and written once when the run ends. A nil *spanLog is the untraced
// run: start returns a nil span, whose methods are all no-ops.
type spanLog struct {
	tracer *textjoin.RequestTracer
	traces []*textjoin.RequestTraceData
}

func newSpanLog(seed int64) *spanLog {
	return &spanLog{tracer: textjoin.NewRequestTracer(uint64(seed))}
}

func (l *spanLog) start(name string) *textjoin.RequestSpan {
	if l == nil {
		return nil
	}
	return l.tracer.StartTrace(name)
}

// finish seals a root span's trace and keeps it.
func (l *spanLog) finish(root *textjoin.RequestSpan) {
	if l == nil || root == nil {
		return
	}
	l.traces = append(l.traces, root.Data())
}

// selfByPhase sums, over every kept trace whose root is named rootName,
// each span's self time — its duration minus the part of it that its
// children cover — by phase label, in milliseconds.
func (l *spanLog) selfByPhase(rootName string) map[string]float64 {
	out := map[string]float64{}
	for _, t := range l.traces {
		if t.Name != rootName {
			continue
		}
		children := map[string][][2]int64{}
		for _, s := range t.Spans {
			if s.Parent != "" {
				children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNanos, s.StartNanos + s.DurNanos})
			}
		}
		for _, s := range t.Spans {
			self := s.DurNanos - covered(children[s.ID], s.StartNanos, s.StartNanos+s.DurNanos)
			out[s.Phase] += float64(self) / 1e6
		}
	}
	return out
}

// covered is the length of the union of the intervals clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		a, b := max(x[0], end), min(x[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// write stores the run's traces as one JSON document.
func (l *spanLog) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := map[string]any{"traces": l.traces}
	for k, v := range header {
		doc[k] = v
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Sink renders a Snapshot. The two stock sinks cover the command-line
// flag values: TextSink for humans, JSONSink for machines (validated by
// ValidateJSON and `make trace-smoke`).
type Sink interface {
	Export(w io.Writer, s *Snapshot) error
}

// SinkFor maps a -telemetry flag value to a sink.
func SinkFor(mode string) (Sink, error) {
	switch mode {
	case "text":
		return TextSink{}, nil
	case "json":
		return JSONSink{}, nil
	}
	return nil, fmt.Errorf("telemetry: unknown sink %q (want text or json)", mode)
}

// TextSink renders the snapshot as line-oriented text: one `counter`
// line per counter and a `histogram` header plus indented `le` lines per
// histogram.
type TextSink struct{}

// Export writes the text rendering.
func (TextSink) Export(w io.Writer, s *Snapshot) error {
	bw := &errWriter{w: w}
	bw.printf("# telemetry snapshot\n")
	for _, c := range s.Counters {
		bw.printf("counter %s %d\n", c.Name, c.Value)
	}
	for _, h := range s.Histograms {
		bw.printf("histogram %s count=%d sum=%d\n", h.Name, h.Count, h.Sum)
		for _, b := range h.Buckets {
			if b.Count == 0 {
				continue
			}
			bw.printf("  le %s: %d\n", formatLe(b.Le), b.Count)
		}
	}
	return bw.err
}

func formatLe(le int64) string {
	if le == maxInt64 {
		return "+Inf"
	}
	return fmt.Sprintf("%d", le)
}

// errWriter folds the repeated error checks of sequential Fprintf calls.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

// JSONSink renders the snapshot as one indented JSON document — the
// exporter schema ValidateJSON checks.
type JSONSink struct{}

// Export writes the JSON rendering.
func (JSONSink) Export(w io.Writer, s *Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ValidateJSON checks data against the JSONSink exporter schema: a
// single Snapshot document with no unknown fields, non-empty names,
// and ascending histogram bounds whose bucket counts sum to the
// histogram count.
func ValidateJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Snapshot
	if err := dec.Decode(&s); err != nil {
		return fmt.Errorf("telemetry: invalid snapshot: %w", err)
	}
	if dec.More() {
		return errors.New("telemetry: trailing data after snapshot")
	}
	for _, c := range s.Counters {
		if c.Name == "" {
			return errors.New("telemetry: counter with empty name")
		}
	}
	for _, h := range s.Histograms {
		if h.Name == "" {
			return errors.New("telemetry: histogram with empty name")
		}
		if len(h.Buckets) < 1 {
			return fmt.Errorf("telemetry: histogram %s has no buckets", h.Name)
		}
		var sum int64
		prev := int64(0)
		for i, b := range h.Buckets {
			if b.Count < 0 {
				return fmt.Errorf("telemetry: histogram %s bucket %d has negative count", h.Name, i)
			}
			if i > 0 && b.Le <= prev {
				return fmt.Errorf("telemetry: histogram %s bounds not ascending at %d", h.Name, i)
			}
			prev = b.Le
			sum += b.Count
		}
		if h.Buckets[len(h.Buckets)-1].Le != maxInt64 {
			return fmt.Errorf("telemetry: histogram %s lacks the overflow bucket", h.Name)
		}
		if sum != h.Count {
			return fmt.Errorf("telemetry: histogram %s bucket counts sum to %d, count is %d", h.Name, sum, h.Count)
		}
	}
	return nil
}

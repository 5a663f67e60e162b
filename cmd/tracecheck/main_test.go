package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"textjoin/internal/analysis"
	"textjoin/internal/reqtrace"
	"textjoin/internal/telemetry"
)

func snapshotJSON(t *testing.T) []byte {
	t.Helper()
	c := telemetry.New()
	c.Counter("join.hhnl.outer_docs").Add(3)
	c.Histogram("phase.scan.ns", telemetry.DefaultLatencyBuckets).Observe(1000)
	sink, err := telemetry.SinkFor("json")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := sink.Export(&sb, c.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return []byte(sb.String())
}

func write(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestValidateFormats(t *testing.T) {
	if f, err := validate(snapshotJSON(t)); err != nil || f != "snapshot" {
		t.Errorf("snapshot: format %q err %v", f, err)
	}
	if f, err := validate(requestTraceJSON(t)); err != nil || f != "request trace" {
		t.Errorf("request trace: format %q err %v", f, err)
	}
	if _, err := validate([]byte("nonsense\n")); err == nil {
		t.Error("garbage accepted")
	} else if !strings.Contains(err.Error(), "snapshot") || !strings.Contains(err.Error(), "request trace") {
		t.Errorf("error does not mention both formats: %v", err)
	}
}

func TestRunMultipleFiles(t *testing.T) {
	dir := t.TempDir()
	good1 := write(t, dir, "snap.json", snapshotJSON(t))
	good2 := write(t, dir, "trace.json", requestTraceJSON(t))
	bad := write(t, dir, "bad.json", []byte("{broken\n"))

	var out, errOut strings.Builder
	if code := run([]string{good1, good2}, nil, &out, &errOut, false); code != 0 {
		t.Errorf("all-valid run exited %d: %s", code, errOut.String())
	}
	if got := out.String(); !strings.Contains(got, "snapshot ok") || !strings.Contains(got, "request trace ok") {
		t.Errorf("missing ok lines:\n%s", got)
	}

	// A bad file in the middle does not stop later files from being
	// checked, and the summary counts it.
	out.Reset()
	errOut.Reset()
	if code := run([]string{good1, bad, good2}, nil, &out, &errOut, false); code != 1 {
		t.Errorf("run with bad file exited %d", code)
	}
	if !strings.Contains(errOut.String(), "1 of 3 input(s) invalid") {
		t.Errorf("missing summary:\n%s", errOut.String())
	}
	if !strings.Contains(out.String(), good2) {
		t.Errorf("later file skipped after error:\n%s", out.String())
	}

	// Quiet mode suppresses ok lines, never errors.
	out.Reset()
	errOut.Reset()
	if code := run([]string{good1, bad}, nil, &out, &errOut, true); code != 1 {
		t.Errorf("quiet run exited %d", code)
	}
	if out.String() != "" {
		t.Errorf("quiet mode printed ok lines:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "bad.json") {
		t.Errorf("quiet mode swallowed the error:\n%s", errOut.String())
	}

	// Unreadable file counts as invalid.
	if code := run([]string{filepath.Join(dir, "missing.json")}, nil, &out, &errOut, true); code != 1 {
		t.Errorf("missing file exited %d", code)
	}
}

func TestRunStdin(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, strings.NewReader(string(snapshotJSON(t))), &out, &errOut, false); code != 0 {
		t.Errorf("stdin run exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "<stdin>: snapshot ok") {
		t.Errorf("stdin verdict missing:\n%s", out.String())
	}
}

// TestLintcheckClean holds this command to the repo's own static
// analysis: the validator that checks everyone else's output should
// itself pass the in-tree lint suite.
func TestLintcheckClean(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			t.Fatal("no go.mod above working directory")
		}
		root = parent
	}
	report, err := analysis.Run(root, analysis.DefaultPolicy(),
		analysis.RunOptions{Packages: []string{"cmd/tracecheck"}})
	if err != nil {
		t.Fatalf("analysis.Run: %v", err)
	}
	for _, d := range report.Diagnostics {
		t.Errorf("%s", d)
	}
}

// requestTraceJSON builds one finished request trace through the real
// tracer, exactly as textjoind's flight recorder serves it.
func requestTraceJSON(t *testing.T) []byte {
	t.Helper()
	tick := time.Unix(0, 0)
	tr := reqtrace.NewTracer(7, func() time.Time {
		tick = tick.Add(time.Millisecond)
		return tick
	})
	root := tr.StartTrace("join")
	q := root.StartChild("queue", "admission")
	q.End()
	e := root.StartChild("exec", "join hvnl")
	e.SetAttr("join.alg", "hvnl")
	e.End()
	root.End()
	data, err := json.Marshal(root.Data())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestValidateRequestTrace: the per-request format is auto-detected and
// malformed trees are rejected by every format, not silently accepted
// by another.
func TestValidateRequestTrace(t *testing.T) {
	good := requestTraceJSON(t)
	if f, err := validate(good); err != nil || f != "request trace" {
		t.Fatalf("request trace: format %q err %v", f, err)
	}

	// Corrupt the tree in ways the reqtrace validator must catch: a
	// dangling parent and a second root.
	var d reqtrace.TraceData
	if err := json.Unmarshal(good, &d); err != nil {
		t.Fatal(err)
	}
	dangling := d
	dangling.Spans = append([]reqtrace.SpanData(nil), d.Spans...)
	dangling.Spans[len(dangling.Spans)-1].Parent = "00000000000000ff"
	twoRoots := d
	twoRoots.Spans = append([]reqtrace.SpanData(nil), d.Spans...)
	twoRoots.Spans[0].Parent = "" // the queue child, orphaned into a second root

	for name, bad := range map[string]reqtrace.TraceData{
		"dangling parent": dangling,
		"two roots":       twoRoots,
	} {
		data, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		if f, err := validate(data); err == nil {
			t.Errorf("%s accepted as %q", name, f)
		}
	}

	// Cross-format isolation: neither format passes as the other.
	if err := telemetry.ValidateJSON(good); err == nil {
		t.Error("request trace accepted as a snapshot")
	}
	if err := reqtrace.Validate(snapshotJSON(t)); err == nil {
		t.Error("snapshot accepted as a request trace")
	}
}

// Command tracecheck validates telemetry exports in two formats, auto-
// detected per input: JSON snapshots (the -telemetry json exporter
// schema: counters and histograms sorted and well-formed, bucket counts
// consistent) and per-request trace trees (the textjoind
// /debug/requests/{traceID} format: a reqtrace span tree with exactly
// one root and resolvable parents).
//
// With no arguments it reads stdin, so it can terminate a pipeline like
//
//	textjoin ... -telemetry json 2>&1 1>/dev/null | tracecheck
//
// With file arguments it validates each file, prints a per-file verdict,
// and exits non-zero if any file is invalid — it does not stop at the
// first bad file. -q suppresses the per-file "ok" lines (errors always
// print).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"textjoin/internal/reqtrace"
	"textjoin/internal/telemetry"
)

func main() {
	quiet := flag.Bool("q", false, "print only errors, not per-file ok lines")
	flag.Parse()
	os.Exit(run(flag.Args(), os.Stdin, os.Stdout, os.Stderr, *quiet))
}

// run validates each named input (or stdin when none), reporting every
// failure; the exit code is the number of invalid inputs capped at 1.
func run(paths []string, stdin io.Reader, stdout, stderr io.Writer, quiet bool) int {
	type input struct {
		name string
		data []byte
		err  error
	}
	var inputs []input
	if len(paths) == 0 {
		data, err := io.ReadAll(stdin)
		inputs = append(inputs, input{"<stdin>", data, err})
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		inputs = append(inputs, input{p, data, err})
	}

	bad := 0
	for _, in := range inputs {
		if in.err != nil {
			fmt.Fprintf(stderr, "tracecheck: %s: %v\n", in.name, in.err)
			bad++
			continue
		}
		format, err := validate(in.data)
		if err != nil {
			fmt.Fprintf(stderr, "tracecheck: %s: %v\n", in.name, err)
			bad++
			continue
		}
		if !quiet {
			fmt.Fprintf(stdout, "tracecheck: %s: %s ok\n", in.name, format)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "tracecheck: %d of %d input(s) invalid\n", bad, len(inputs))
		return 1
	}
	return 0
}

// validate auto-detects the export format: the snapshot schema first,
// then the per-request trace tree. Detection is unambiguous — both
// validators reject unknown fields, and only the request-trace document
// carries reqtrace_schema — so the order only decides whose error
// message leads. An input valid under neither reports both failures.
func validate(data []byte) (string, error) {
	snapErr := telemetry.ValidateJSON(data)
	if snapErr == nil {
		return "snapshot", nil
	}
	reqErr := reqtrace.Validate(data)
	if reqErr == nil {
		return "request trace", nil
	}
	return "", fmt.Errorf("neither a valid snapshot (%v) nor a request trace (%v)", snapErr, reqErr)
}

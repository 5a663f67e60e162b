// Command simulate regenerates the paper's Section 6 simulation study.
//
// Usage:
//
//	simulate [-group all|table1|1|2|3|4|5|findings|integrated|measured]
//	         [-scale N] [-mem B] [-seed S]
//
// The analytic groups evaluate the cost formulas at full TREC scale, which
// is exactly what the paper's simulation did. The measured group builds
// 1/scale synthetic corpora, runs the three real algorithms and prints
// measured page I/O next to the model.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"textjoin/internal/core"
	"textjoin/internal/corpus"
	"textjoin/internal/costmodel"
	"textjoin/internal/metrics"
	"textjoin/internal/reqtrace"
	"textjoin/internal/simulate"
	"textjoin/internal/telemetry"
)

func main() {
	group := flag.String("group", "all", "which experiment group to run: all, table1, 1, 2, 3, 4, 5, lambda, delta, extended, findings, integrated, measured")
	scale := flag.Int64("scale", 256, "corpus shrink divisor for -group measured")
	mem := flag.Int64("mem", 200, "memory budget B in pages for -group measured")
	seed := flag.Int64("seed", 1, "corpus seed for -group measured")
	telemetryMode := flag.String("telemetry", "", "emit a telemetry snapshot to stderr after -group measured: text or json")
	promPath := flag.String("prom", "", "after -group measured, write the collector as a Prometheus text exposition to this file")
	flag.Parse()

	if err := run(*group, *scale, *mem, *seed, *telemetryMode, *promPath); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

func run(group string, scale, mem, seed int64, telemetryMode, promPath string) error {
	printTables := func(tables []*simulate.Table) {
		for _, t := range tables {
			fmt.Println(t.Format())
		}
	}
	switch group {
	case "all":
		printTables(simulate.RunAll())
		fmt.Println(simulate.FormatFindings(simulate.Findings()))
		return nil
	case "table1":
		printTables([]*simulate.Table{simulate.Table1()})
	case "1":
		printTables(simulate.Group1())
	case "2":
		printTables(simulate.Group2())
	case "3":
		printTables(simulate.Group3())
	case "4":
		printTables(simulate.Group4())
	case "5":
		printTables(simulate.Group5())
	case "lambda":
		printTables(simulate.GroupLambda())
	case "delta":
		printTables(simulate.GroupDelta())
	case "extended":
		printExtended()
	case "findings":
		fmt.Println(simulate.FormatFindings(simulate.Findings()))
	case "integrated":
		// The integrated choices are the last column of every table;
		// print a compact choice matrix over the whole grid.
		fmt.Println("== integrated algorithm choices across the grid ==")
		for _, t := range simulate.RunAll() {
			if t.ID == "table1" {
				continue
			}
			var choices []string
			for _, r := range t.Rows {
				choices = append(choices, fmt.Sprintf("%s:%s", r.Label, r.Chosen))
			}
			fmt.Printf("%-18s %s\n", t.ID, strings.Join(choices, "  "))
		}
	case "measured":
		var tel *telemetry.Collector
		var sink telemetry.Sink
		if telemetryMode != "" {
			var err error
			sink, err = telemetry.SinkFor(telemetryMode)
			if err != nil {
				return err
			}
			tel = telemetry.New()
		}
		if promPath != "" && tel == nil {
			tel = telemetry.New()
		}
		// One root span collects every join's phase spans; its finished
		// tree feeds the collector's phase histograms.
		var root *reqtrace.Span
		if tel != nil {
			root = reqtrace.NewTracer(uint64(seed), time.Now).StartTrace("simulate measured")
		}
		for _, pair := range [][2]corpus.Profile{
			{corpus.WSJ, corpus.WSJ},
			{corpus.FR, corpus.FR},
			{corpus.DOE, corpus.DOE},
			{corpus.WSJ, corpus.DOE},
		} {
			res, err := simulate.MeasuredTelemetry(pair[0], pair[1], scale, mem, seed, tel, root)
			if err != nil {
				return err
			}
			fmt.Println(res.Format())
		}
		core.RecordPhases(tel, root.Data())
		if sink != nil {
			if err := sink.Export(os.Stderr, tel.Snapshot()); err != nil {
				return err
			}
		}
		if promPath != "" {
			if err := writeProm(promPath, tel); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown group %q", group)
	}
	return nil
}

// printExtended shows the CPU+communication model (the paper's
// further-studies item 2) for each self join under two configurations: a
// slow CPU and an expensive link to a remote C1.
func printExtended() {
	sys := costmodel.DefaultSystem()
	q := costmodel.DefaultQuery()
	configs := []struct {
		name string
		cpu  costmodel.CPUParams
		net  costmodel.NetParams
	}{
		{"io-only (paper)", costmodel.CPUParams{}, costmodel.NetParams{}},
		{"slow-cpu (1000 ops/page)", costmodel.CPUParams{OpsPerPageRead: 1000}, costmodel.NetParams{}},
		{"remote-C1 (2 units/page)", costmodel.CPUParams{}, costmodel.NetParams{CostPerPage: 2, C1Remote: true}},
	}
	for _, p := range corpus.Profiles() {
		in := costmodel.Input{C1: p.Stats(), C2: p.Stats()}
		fmt.Printf("== extended: self join %s ⋈ %s ==\n", p.Name, p.Name)
		fmt.Printf("%-26s %6s %14s %14s %14s   %s\n", "config", "alg", "io", "cpu", "comm", "total")
		for _, cfg := range configs {
			chosen, bds := costmodel.ChooseTotal(in, sys, q, cfg.cpu, cfg.net)
			for _, b := range bds {
				marker := " "
				if b.Algorithm == chosen {
					marker = "*"
				}
				fmt.Printf("%-26s %5v%s %14.0f %14.0f %14.0f   %.0f\n",
					cfg.name, b.Algorithm, marker, b.IO, b.CPU, b.Comm, b.Total())
			}
		}
		fmt.Println()
	}
}

// writeProm renders the collector as a Prometheus text exposition, so a
// measured run's counters can be pushed to any scrape-file collector.
func writeProm(path string, tel *telemetry.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Backstop release for the error path; the success path checks the
	// explicit Close below and the second Close is a no-op.
	defer f.Close()
	if err := metrics.Encode(f, tel.Snapshot()); err != nil {
		return err
	}
	return f.Close()
}

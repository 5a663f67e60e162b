// Command benchreport is the benchmark observatory: it runs the
// experiment grid (collection shapes × algorithms × worker counts) over
// the simulated store, emits a machine-readable JSON report plus a
// human-readable table, fails when a checked-in baseline regresses, and
// audits the cost model's calibration (estimated vs measured cost, with
// the cells where the integrated algorithm would mispick).
//
// Every reported number derives from the deterministic simulated disk —
// no wall-clock time — so reports are byte-stable across machines and
// runs, and the baseline comparison can demand exact equality.
//
// Usage:
//
//	benchreport -json report.json -baseline BENCH_BASELINE.json
//	benchreport -calibrate -calreport CALIBRATION_PR4.md
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

func main() {
	cfg := defaultBenchConfig()
	jsonPath := flag.String("json", "", "write the machine-readable report to this file")
	baselinePath := flag.String("baseline", "", "compare against this baseline report; exit non-zero on regression")
	tolerance := flag.Float64("tolerance", 0, "relative deviation tolerated by the baseline comparison (0 = exact)")
	calibrate := flag.Bool("calibrate", false, "audit cost-model calibration and include it in the report")
	prefilter := flag.Bool("prefilter", false, "run the signature-prefilter grid (clustered shapes, cells with the filter off and on) instead of the main grid")
	lshGrid := flag.Bool("lsh", false, "run the LSH recall-vs-speed grid (clustered shapes, exact ground-truth cells plus every banding shape, measured recall) instead of the main grid")
	calReport := flag.String("calreport", "", "write the calibration report to this file (implies -calibrate)")
	quiet := flag.Bool("q", false, "suppress the human-readable table")
	flag.Int64Var(&cfg.Scale, "scale", cfg.Scale, "profile shrink divisor")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "generation seed")
	flag.Int64Var(&cfg.MemoryPages, "mem", cfg.MemoryPages, "memory budget B in pages")
	flag.IntVar(&cfg.Lambda, "lambda", cfg.Lambda, "λ of SIMILAR_TO(λ)")
	flag.Float64Var(&cfg.Alpha, "alpha", cfg.Alpha, "random/sequential I/O cost ratio α")
	workers := flag.String("workers", "1,4", "comma-separated worker counts")
	flag.Parse()

	if *calReport != "" {
		*calibrate = true
	}
	var err error
	if cfg.Workers, err = parseWorkers(*workers); err != nil {
		fatal(err)
	}

	var report *Report
	switch {
	case *prefilter:
		report, err = runPrefilterGrid(cfg)
	case *lshGrid:
		report, err = runLSHGrid(cfg)
	default:
		report, err = runGrid(cfg, *calibrate)
	}
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		writeHuman(os.Stdout, report)
		if *prefilter {
			writePrefilterSummary(os.Stdout, report)
		}
		if *lshGrid {
			writeLSHSummary(os.Stdout, report)
		}
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("report written to %s\n", *jsonPath)
	}
	if *calibrate {
		if err := writeCalibration(report, *calReport); err != nil {
			fatal(err)
		}
	}

	if *baselinePath != "" {
		base, err := loadReport(*baselinePath)
		if err != nil {
			fatal(err)
		}
		regressions := compare(report, base, *tolerance)
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "benchreport: %d regression(s) vs %s:\n", len(regressions), *baselinePath)
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Printf("baseline check: %d cells match %s\n", len(report.Cells), *baselinePath)
	}
}

func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("benchreport: bad worker count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

func writeCalibration(report *Report, path string) error {
	if path == "" {
		return report.Calibration.writeReport(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Backstop release for the error paths; the success path checks the
	// explicit Close below and the second Close is a no-op.
	defer f.Close()
	if err := report.Calibration.writeReport(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("calibration report written to %s\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreport:", err)
	os.Exit(1)
}

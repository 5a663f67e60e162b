package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// steadyCheck is the steadiness self-check: it runs each workload n
// times as separate processes, one seed each (seeds cfg.seed to
// cfg.seed+n−1), and prints for every end-to-end metric its median,
// its quartile spread as a share of the median — the statistic the
// bounds in BENCHMARK.json are checked against — and that bound. With
// --workload it checks that workload only. It fails when a run fails
// or a spread other than setup_s's reaches a third of its bound.
func steadyCheck(cfg config, seconds, n int) error {
	bounds, workloads, err := readBenchmark(cfg.root)
	if err != nil {
		return err
	}
	if cfg.workload != "" {
		workloads = []string{cfg.workload}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := false
	for _, w := range workloads {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			seed := cfg.seed + int64(i)
			cmd := exec.Command(self, "-root", cfg.root, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "steady: %s seed %d: %s\n", w, seed, lines[len(lines)-1])
		}
		fmt.Printf("%-9s %-16s %14s %8s %8s  %s\n", "workload", "metric", "median", "spread", "bound", "")
		for _, name := range endToEnd {
			spread, bound := quartileSpread(values[name]), bounds[name]
			flag := ""
			if name != "setup_s" && spread >= bound/3 {
				flag, failed = "above bound/3", true
			}
			fmt.Printf("%-9s %-16s %14.4f %8.4f %8.4f  %s\n", w, name, median(values[name]), spread, bound, flag)
		}
	}
	if failed {
		return fmt.Errorf("some spreads are at or above a third of their bound")
	}
	return nil
}

// readBenchmark reads the end-to-end bounds and workload names from
// BENCHMARK.json at the repository root.
func readBenchmark(root string) (map[string]float64, []string, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, nil, err
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range b.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	return bounds, names, nil
}

package main

import (
	"os"
	"path/filepath"
	"testing"
)

func silence(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

func TestRunProfilesAllAlgorithms(t *testing.T) {
	silence(t)
	for _, alg := range []string{"auto", "hhnl", "hvnl", "vvm"} {
		if err := run("", "", "wsj", "wsj", 4096, 1, alg, 3, 200, 5, "raw", 2, true, "", nil, nil); err != nil {
			t.Errorf("alg %q: %v", alg, err)
		}
	}
}

func TestRunWeightings(t *testing.T) {
	silence(t)
	for _, w := range []string{"raw", "cosine", "tfidf"} {
		if err := run("", "", "doe", "doe", 4096, 1, "hhnl", 2, 200, 5, w, 1, false, "", nil, nil); err != nil {
			t.Errorf("weighting %q: %v", w, err)
		}
	}
}

func TestRunFromFiles(t *testing.T) {
	silence(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "c.txt")
	content := "0 1:2 5:1\n1 2:1 5:3\n2 1:1 2:2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, path, "", "", 1, 1, "vvm", 2, 100, 5, "raw", 3, false, "", nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunBatch(t *testing.T) {
	silence(t)
	dir := t.TempDir()
	queries := filepath.Join(dir, "q.txt")
	if err := os.WriteFile(queries, []byte("0 1:1 2:1\n1 5:2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runBatch("", "wsj", 4096, 1, queries, 2, 200, 5, "raw", 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Errors: missing query file, bad weighting, missing C1.
	if err := runBatch("", "wsj", 4096, 1, "/nonexistent.txt", 2, 200, 5, "raw", 2, nil, nil); err == nil {
		t.Error("missing query file: want error")
	}
	if err := runBatch("", "wsj", 4096, 1, queries, 2, 200, 5, "bogus", 2, nil, nil); err == nil {
		t.Error("bad weighting: want error")
	}
	if err := runBatch("", "", 4096, 1, queries, 2, 200, 5, "raw", 2, nil, nil); err == nil {
		t.Error("missing C1: want error")
	}
}

func TestRunSaveDisk(t *testing.T) {
	silence(t)
	snap := filepath.Join(t.TempDir(), "disk.tjdk")
	if err := run("", "", "wsj", "wsj", 4096, 1, "hhnl", 2, 200, 5, "raw", 1, false, snap, nil, nil); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("empty snapshot")
	}
	// Bad path errors out.
	if err := run("", "", "wsj", "wsj", 4096, 1, "hhnl", 2, 200, 5, "raw", 1, false, "/no-such-dir/x", nil, nil); err == nil {
		t.Error("bad snapshot path: want error")
	}
}

func TestRunErrors(t *testing.T) {
	silence(t)
	// No source for C1.
	if err := run("", "", "", "wsj", 4096, 1, "auto", 2, 100, 5, "raw", 1, false, "", nil, nil); err == nil {
		t.Error("missing C1 source: want error")
	}
	// Unknown algorithm.
	if err := run("", "", "wsj", "wsj", 4096, 1, "bogus", 2, 100, 5, "raw", 1, false, "", nil, nil); err == nil {
		t.Error("unknown algorithm: want error")
	}
	// Unknown weighting.
	if err := run("", "", "wsj", "wsj", 4096, 1, "hhnl", 2, 100, 5, "bogus", 1, false, "", nil, nil); err == nil {
		t.Error("unknown weighting: want error")
	}
	// Unknown profile.
	if err := run("", "", "trec", "wsj", 4096, 1, "hhnl", 2, 100, 5, "raw", 1, false, "", nil, nil); err == nil {
		t.Error("unknown profile: want error")
	}
	// Missing file.
	if err := run("/nonexistent.txt", "", "", "wsj", 4096, 1, "hhnl", 2, 100, 5, "raw", 1, false, "", nil, nil); err == nil {
		t.Error("missing file: want error")
	}
}

package textjoin

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestPersistenceRoundTrip builds collections and inverted files, saves
// the workspace to a real file, restores it in a "new process" and
// verifies the join results are identical.
func TestPersistenceRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ws := NewWorkspace(WithPageSize(512), WithAlpha(5))
	c1, err := ws.NewCollection("c1", randomDocuments(r, 30, 60, 12))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ws.NewCollection("c2", randomDocuments(r, 25, 60, 12))
	if err != nil {
		t.Fatal(err)
	}
	inv1, err := ws.BuildInvertedFile(c1)
	if err != nil {
		t.Fatal(err)
	}
	inv2, err := ws.BuildInvertedFile(c2)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Lambda: 4, MemoryPages: 100}
	want, _, err := Join(VVM, Inputs{Outer: c2, Inner: c1, InnerInv: inv1, OuterInv: inv2}, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Save to a real file on the OS filesystem.
	path := filepath.Join(t.TempDir(), "workspace.tjdk")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Restore and re-attach.
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	restored, err := LoadWorkspace(g)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Disk().PageSize() != 512 || restored.Disk().Alpha() != 5 {
		t.Errorf("disk params: %d, %v", restored.Disk().PageSize(), restored.Disk().Alpha())
	}
	rc1, err := restored.OpenCollection("c1", 30)
	if err != nil {
		t.Fatal(err)
	}
	rc2, err := restored.OpenCollection("c2", 25)
	if err != nil {
		t.Fatal(err)
	}
	rinv1, err := restored.OpenInvertedFile(rc1)
	if err != nil {
		t.Fatal(err)
	}
	rinv2, err := restored.OpenInvertedFile(rc2)
	if err != nil {
		t.Fatal(err)
	}
	if rc1.Stats() != c1.Stats() || rc2.Stats() != c2.Stats() {
		t.Errorf("collection stats changed across persistence")
	}

	for _, alg := range []Algorithm{HHNL, HVNL, VVM} {
		got, _, err := Join(alg, Inputs{Outer: rc2, Inner: rc1, InnerInv: rinv1, OuterInv: rinv2}, opts)
		if err != nil {
			t.Fatalf("%v after restore: %v", alg, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d rows vs %d", alg, len(got), len(want))
		}
		for i := range want {
			if got[i].Outer != want[i].Outer || len(got[i].Matches) != len(want[i].Matches) {
				t.Fatalf("%v row %d differs", alg, i)
			}
			for j := range want[i].Matches {
				if got[i].Matches[j].Doc != want[i].Matches[j].Doc {
					t.Fatalf("%v row %d match %d differs", alg, i, j)
				}
			}
		}
	}
}

func TestLoadWorkspaceBadData(t *testing.T) {
	if _, err := LoadWorkspace(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("bad snapshot: want error")
	}
}

func TestOpenCollectionMissing(t *testing.T) {
	ws := NewWorkspace()
	if _, err := ws.OpenCollection("ghost", 1); err == nil {
		t.Error("missing collection: want error")
	}
}

// topicDocuments draws each document's terms from one of four disjoint
// 200-term topic ranges, so signature aggregates and LSH buckets have
// something to prune.
func topicDocuments(r *rand.Rand, n int) []*Document {
	docs := make([]*Document, n)
	for i := range docs {
		base := uint32(i%4) * 200
		counts := make(map[uint32]int)
		for j, l := 0, r.Intn(10)+3; j < l; j++ {
			counts[base+uint32(r.Intn(40))]++
		}
		docs[i] = NewDocument(uint32(i), counts)
	}
	return docs
}

// TestPersistenceRoundTripSidecars saves a workspace holding signature
// and LSH sidecars, restores it through LoadWorkspace, OpenCollection,
// OpenInvertedFile, OpenSignatures and OpenLSH, and requires prefiltered
// HHNL and HVNL and the LSH join on the restored workspace to reproduce
// the pre-save rows and work counts exactly. Page counts are left out:
// OpenInvertedFile loads the B+tree as it opens the file, so the restored
// HVNL has fewer index pages left to read.
func TestPersistenceRoundTripSidecars(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ws := NewWorkspace(WithPageSize(256))
	c1, err := ws.NewCollection("c1", topicDocuments(r, 48))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ws.NewCollection("c2", topicDocuments(r, 36))
	if err != nil {
		t.Fatal(err)
	}
	inv1, err := ws.BuildInvertedFile(c1)
	if err != nil {
		t.Fatal(err)
	}
	sigCfg := SignatureConfig{Bits: 512, Hashes: 1, Granularity: 1, ClusterDocs: 4}
	pf := &Prefilter{}
	if pf.Inner, err = ws.BuildSignatures(c1, sigCfg); err != nil {
		t.Fatal(err)
	}
	if pf.Outer, err = ws.BuildSignatures(c2, sigCfg); err != nil {
		t.Fatal(err)
	}
	sc, err := ws.BuildLSH(c1, LSHConfig{Bands: 16, Rows: 2})
	if err != nil {
		t.Fatal(err)
	}

	type run struct {
		name string
		alg  Algorithm
		opts Options
	}
	runs := func(pf *Prefilter, sc *LSHSidecar) []run {
		return []run{
			{"hhnl-prefilter", HHNL, Options{Lambda: 4, MemoryPages: 6, Prefilter: pf}},
			{"hvnl-prefilter", HVNL, Options{Lambda: 4, MemoryPages: 100, Prefilter: pf}},
			{"lsh", LSH, Options{Lambda: 4, MemoryPages: 6, LSH: sc}},
		}
	}
	type outcome struct {
		rows  []Result
		stats *JoinStats
	}
	var before []outcome
	for _, ru := range runs(pf, sc) {
		rows, st, err := Join(ru.alg, Inputs{Outer: c2, Inner: c1, InnerInv: inv1}, ru.opts)
		if err != nil {
			t.Fatalf("%s before save: %v", ru.name, err)
		}
		before = append(before, outcome{rows, st})
	}
	if st := before[0].stats.Prefilter; st.DocsSkipped == 0 {
		t.Fatalf("prefiltered HHNL skipped nothing (%+v): the round trip would not exercise the signatures", st)
	}
	if st := before[2].stats.LSH; st.DocsSkipped == 0 {
		t.Fatalf("LSH skipped nothing (%+v): the round trip would not exercise the buckets", st)
	}

	var buf bytes.Buffer
	if _, err := ws.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadWorkspace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rc1, err := restored.OpenCollection("c1", c1.NumDocs())
	if err != nil {
		t.Fatal(err)
	}
	rc2, err := restored.OpenCollection("c2", c2.NumDocs())
	if err != nil {
		t.Fatal(err)
	}
	rinv1, err := restored.OpenInvertedFile(rc1)
	if err != nil {
		t.Fatal(err)
	}
	rpf := &Prefilter{}
	if rpf.Inner, err = restored.OpenSignatures(rc1); err != nil {
		t.Fatal(err)
	}
	if rpf.Outer, err = restored.OpenSignatures(rc2); err != nil {
		t.Fatal(err)
	}
	rsc, err := restored.OpenLSH(rc1)
	if err != nil {
		t.Fatal(err)
	}

	for i, ru := range runs(rpf, rsc) {
		rows, st, err := Join(ru.alg, Inputs{Outer: rc2, Inner: rc1, InnerInv: rinv1}, ru.opts)
		if err != nil {
			t.Fatalf("%s after restore: %v", ru.name, err)
		}
		want := before[i]
		if len(rows) != len(want.rows) {
			t.Fatalf("%s: %d rows after restore vs %d", ru.name, len(rows), len(want.rows))
		}
		for j := range want.rows {
			if rows[j].Outer != want.rows[j].Outer || len(rows[j].Matches) != len(want.rows[j].Matches) {
				t.Fatalf("%s row %d differs after restore", ru.name, j)
			}
			for k, m := range want.rows[j].Matches {
				if rows[j].Matches[k] != m {
					t.Fatalf("%s row %d match %d: %+v after restore vs %+v", ru.name, j, k, rows[j].Matches[k], m)
				}
			}
		}
		ws, rs := want.stats, st
		if rs.OuterDocs != ws.OuterDocs || rs.Passes != ws.Passes || rs.Comparisons != ws.Comparisons ||
			rs.Accumulations != ws.Accumulations || rs.EntryFetches != ws.EntryFetches ||
			rs.Cache != ws.Cache || rs.Prefilter != ws.Prefilter || rs.LSH != ws.LSH {
			t.Errorf("%s: stats after restore\n%+v\nvs before save\n%+v", ru.name, *rs, *ws)
		}
	}
}

package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"

	"textjoin/internal/collection"
	"textjoin/internal/document"
	"textjoin/internal/iosim"
	"textjoin/internal/lsh"
	"textjoin/internal/reqtrace"
	"textjoin/internal/telemetry"
)

// This file is the differential harness promised by the telemetry layer:
// every algorithm (serial and parallel, at several worker counts) must
// return the identical top-λ on a corpus of adversarial shapes, and
// attaching a telemetry collector must change neither the results nor
// one byte of the Stats.

// diffShape describes one seeded corpus shape. build returns the two
// document sets; the remaining fields parameterize the join. Each call
// to buildDiffEnv constructs a fresh disk, so head positions (and with
// them the sequential/random classification) start identically for every
// run being compared.
type diffShape struct {
	name     string
	pageSize int
	lambda   int
	mem      int64
	delta    float64
	build    func(r *rand.Rand) (c1, c2 []*document.Document)
}

// docOf builds one document from explicit term counts.
func docOf(id uint32, counts map[uint32]int) *document.Document {
	return document.New(id, counts)
}

func diffShapes() []diffShape {
	return []diffShape{
		{
			// Baseline: uniform random terms.
			name: "uniform", pageSize: 256, lambda: 4, mem: 300,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				return randomDocs(r, 40, 60, 12), randomDocs(r, 35, 60, 12)
			},
		},
		{
			// Heavily skewed document frequencies: a few terms appear
			// almost everywhere (stresses HVNL's cache policy and the
			// merge fan-out of the parallel VVM).
			name: "skewed-df", pageSize: 256, lambda: 4, mem: 300,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				z := rand.NewZipf(r, 1.3, 1, 49)
				gen := func(n int) []*document.Document {
					docs := make([]*document.Document, n)
					for i := range docs {
						counts := make(map[uint32]int)
						for j, l := 0, r.Intn(12)+1; j < l; j++ {
							counts[uint32(z.Uint64())]++
						}
						docs[i] = docOf(uint32(i), counts)
					}
					return docs
				}
				return gen(40), gen(40)
			},
		},
		{
			// Every third document is empty on both sides: rows must
			// still appear (with no matches) and nothing may divide by a
			// zero norm.
			name: "empty-docs", pageSize: 256, lambda: 3, mem: 300,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				gen := func(n int) []*document.Document {
					docs := make([]*document.Document, n)
					for i := range docs {
						if i%3 == 0 {
							docs[i] = docOf(uint32(i), nil)
							continue
						}
						counts := make(map[uint32]int)
						for j, l := 0, r.Intn(10)+1; j < l; j++ {
							counts[uint32(r.Intn(40))]++
						}
						docs[i] = docOf(uint32(i), counts)
					}
					return docs
				}
				return gen(30), gen(30)
			},
		},
		{
			// λ exceeds the inner collection: every outer document keeps
			// all non-zero inner matches.
			name: "lambda-gt-n1", pageSize: 256, lambda: 9, mem: 200,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				return randomDocs(r, 4, 25, 8), randomDocs(r, 12, 25, 8)
			},
		},
		{
			// Both collections fit one 4K page: the degenerate I/O case
			// (a single sequential read per scan).
			name: "one-page", pageSize: 4096, lambda: 3, mem: 100,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				return randomDocs(r, 8, 10, 3), randomDocs(r, 8, 10, 3)
			},
		},
		{
			// Disjoint vocabularies: every similarity is zero, so every
			// algorithm must emit empty match lists for every outer row.
			name: "disjoint-vocab", pageSize: 256, lambda: 3, mem: 200,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				gen := func(n, lo int) []*document.Document {
					docs := make([]*document.Document, n)
					for i := range docs {
						counts := make(map[uint32]int)
						for j, l := 0, r.Intn(8)+1; j < l; j++ {
							counts[uint32(lo+r.Intn(30))]++
						}
						docs[i] = docOf(uint32(i), counts)
					}
					return docs
				}
				return gen(20, 0), gen(20, 30)
			},
		},
		{
			// Every document identical: all similarities tie, so results
			// are decided purely by the deterministic tie-break order.
			name: "identical-docs", pageSize: 256, lambda: 5, mem: 200,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				gen := func(n int) []*document.Document {
					docs := make([]*document.Document, n)
					for i := range docs {
						docs[i] = docOf(uint32(i), map[uint32]int{1: 2, 5: 1, 9: 3})
					}
					return docs
				}
				return gen(20), gen(20)
			},
		},
		{
			// One term per document from a tiny vocabulary: maximal
			// entry sharing in the inverted files.
			name: "single-term-docs", pageSize: 256, lambda: 4, mem: 200,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				gen := func(n int) []*document.Document {
					docs := make([]*document.Document, n)
					for i := range docs {
						docs[i] = docOf(uint32(i), map[uint32]int{uint32(r.Intn(6)): r.Intn(3) + 1})
					}
					return docs
				}
				return gen(30), gen(30)
			},
		},
		{
			// Tight memory and δ=1 force VVM into multiple partitions
			// (and HHNL into multiple batches).
			name: "multi-pass", pageSize: 64, lambda: 3, mem: 30, delta: 1,
			build: func(r *rand.Rand) ([]*document.Document, []*document.Document) {
				return randomDocs(r, 50, 40, 10), randomDocs(r, 50, 40, 10)
			},
		},
	}
}

// buildDiffEnv constructs a fresh environment for a shape. Determinism:
// the same (shape, seed) always produces byte-identical collections on a
// disk with pristine head positions.
func buildDiffEnv(tb testing.TB, s diffShape, seed int64) *env {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	docs1, docs2 := s.build(r)
	d := iosim.NewDisk(iosim.WithPageSize(s.pageSize))
	c1 := buildColl(tb, d, "c1", docs1)
	c2 := buildColl(tb, d, "c2", docs2)
	inv1 := buildInv(tb, d, c1, "c1")
	inv2 := buildInv(tb, d, c2, "c2")
	d.ResetStats()
	return &env{disk: d, c1: c1, c2: c2, inv1: inv1, inv2: inv2}
}

func (s diffShape) options() Options {
	return Options{Lambda: s.lambda, MemoryPages: s.mem, Delta: s.delta}
}

// diffVariant is one join entry point under test.
type diffVariant struct {
	name string
	run  func(in Inputs, opts Options) ([]Result, *Stats, error)
}

func diffVariants() []diffVariant {
	vs := []diffVariant{
		{"hhnl", JoinHHNL},
		{"hvnl", JoinHVNL},
		{"vvm", JoinVVM},
	}
	for _, w := range []int{1, 2, 7} {
		w := w
		vs = append(vs,
			diffVariant{fmt.Sprintf("hhnl-p%d", w), func(in Inputs, o Options) ([]Result, *Stats, error) {
				return JoinHHNLParallel(in, o, w)
			}},
			diffVariant{fmt.Sprintf("hvnl-p%d", w), func(in Inputs, o Options) ([]Result, *Stats, error) {
				return JoinHVNLParallel(in, o, w)
			}},
			diffVariant{fmt.Sprintf("vvm-p%d", w), func(in Inputs, o Options) ([]Result, *Stats, error) {
				return JoinVVMParallel(in, o, w)
			}},
		)
	}
	return vs
}

// TestDifferentialShapes is the cross-algorithm harness: on every shape,
// every variant must equal the serial HHNL baseline exactly.
func TestDifferentialShapes(t *testing.T) {
	for _, shape := range diffShapes() {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			baseEnv := buildDiffEnv(t, shape, 1)
			want, _, err := JoinHHNL(baseEnv.inputs(), shape.options())
			if err != nil {
				t.Fatalf("baseline HHNL: %v", err)
			}
			for _, v := range diffVariants() {
				e := buildDiffEnv(t, shape, 1)
				got, _, err := v.run(e.inputs(), shape.options())
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if err := sameResults(want, got); err != nil {
					t.Errorf("%s differs from baseline: %v", v.name, err)
				}
			}
		})
	}
}

// TestTelemetryInvariance pins the tentpole's contract: an attached
// collector and request trace change neither the results nor a single
// byte of the Stats, for every variant on every shape, while the trace
// records the join's phase spans. Fresh environments per run keep the
// disk head positions (and so the seq/rand classification) comparable.
func TestTelemetryInvariance(t *testing.T) {
	for _, shape := range diffShapes() {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			for _, v := range diffVariants() {
				off := buildDiffEnv(t, shape, 1)
				offRes, offSt, err := v.run(off.inputs(), shape.options())
				if err != nil {
					t.Fatalf("%s off: %v", v.name, err)
				}

				on := buildDiffEnv(t, shape, 1)
				tel := telemetry.New()
				on.disk.SetCollector(tel)
				root := reqtrace.NewTracer(1, stepClock()).StartTrace("join")
				opts := shape.options()
				opts.Telemetry = tel
				opts.Trace = root
				onRes, onSt, err := v.run(on.inputs(), opts)
				if err != nil {
					t.Fatalf("%s on: %v", v.name, err)
				}

				if err := sameResults(offRes, onRes); err != nil {
					t.Errorf("%s: telemetry changed results: %v", v.name, err)
				}
				if *offSt != *onSt {
					t.Errorf("%s: telemetry changed stats:\noff %+v\non  %+v", v.name, *offSt, *onSt)
				}
				if s := tel.Snapshot(); len(s.Counters) == 0 {
					t.Errorf("%s: enabled collector recorded nothing", v.name)
				}
				if len(joinPhaseCounts(root.Data())) == 0 {
					t.Errorf("%s: request trace holds no phase span", v.name)
				}
			}
		})
	}
}

// TestTelemetryConcurrentSnapshots runs joins while another goroutine
// snapshots the shared collector continuously: collection must be safe
// under concurrency and still not perturb the results.
func TestTelemetryConcurrentSnapshots(t *testing.T) {
	shape := diffShapes()[0]
	baseEnv := buildDiffEnv(t, shape, 1)
	want, _, err := JoinHHNL(baseEnv.inputs(), shape.options())
	if err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				tel.Snapshot()
			}
		}
	}()

	for _, v := range diffVariants() {
		e := buildDiffEnv(t, shape, 1)
		e.disk.SetCollector(tel)
		opts := shape.options()
		opts.Telemetry = tel
		got, _, err := v.run(e.inputs(), opts)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if err := sameResults(want, got); err != nil {
			t.Errorf("%s under concurrent snapshots: %v", v.name, err)
		}
	}
	close(done)
	wg.Wait()

	snap := tel.Snapshot()
	if len(snap.Counters) == 0 {
		t.Error("no counters collected")
	}
}

// lshDiffConfig is the banding shape the LSH axis runs under: 32
// single-row bands keep the candidate S-curve 1−(1−s)^32 high even for
// the low-Jaccard pairs the small adversarial corpora produce, so the
// recall floors below are meaningful rather than vacuously tiny.
var lshDiffConfig = lsh.Config{Bands: 32, Rows: 1, Seed: 7}

// lshRecallFloors maps shape name → the measured-recall floor under
// lshDiffConfig. Everything is seeded and deterministic, so measured
// recall is an exact repeatable number per shape; the floors sit under
// the observed values with margin for intentional algorithm changes.
func lshRecallFloors() map[string]float64 {
	return map[string]float64{
		"uniform":          0.85,
		"skewed-df":        0.85,
		"empty-docs":       0.85,
		"lambda-gt-n1":     0.80,
		"one-page":         0.80,
		"disjoint-vocab":   1.00, // no exact pairs: recall is trivially 1
		"identical-docs":   1.00, // Jaccard 1 pairs always collide
		"single-term-docs": 1.00, // sharing the single term ⇒ same MinHash
		"multi-pass":       0.85,
	}
}

// buildDiffLSH builds the inner collection's MinHash sidecar on the
// shape's disk and re-zeroes the I/O stats, so runs being compared start
// from identical head positions whether or not they built a sidecar.
func buildDiffLSH(tb testing.TB, e *env, cfg lsh.Config) *lsh.Sidecar {
	tb.Helper()
	f, err := e.disk.Create("c1.lsh")
	if err != nil {
		tb.Fatal(err)
	}
	sc, err := lsh.Build(e.c1, f, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	e.disk.ResetStats()
	return sc
}

// collectDocs reads a whole collection into an id-indexed map.
func collectDocs(tb testing.TB, c *collection.Collection) map[uint32]*document.Document {
	tb.Helper()
	out := make(map[uint32]*document.Document)
	sc := c.Scan()
	for {
		d, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			tb.Fatal(err)
		}
		out[d.ID] = d
	}
	return out
}

// exactSameResults is sameResults with byte-for-byte similarity
// equality — the LSH axis demands the verified scores be bit-identical
// to the exact scorer, not merely within tolerance.
func exactSameResults(a, b []Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("result count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Outer != b[i].Outer {
			return fmt.Errorf("row %d outer %d vs %d", i, a[i].Outer, b[i].Outer)
		}
		if len(a[i].Matches) != len(b[i].Matches) {
			return fmt.Errorf("outer %d match count %d vs %d", a[i].Outer, len(a[i].Matches), len(b[i].Matches))
		}
		for j := range a[i].Matches {
			ma, mb := a[i].Matches[j], b[i].Matches[j]
			if ma.Doc != mb.Doc || math.Float64bits(ma.Sim) != math.Float64bits(mb.Sim) {
				return fmt.Errorf("outer %d match %d: %+v vs %+v", a[i].Outer, j, ma, mb)
			}
		}
	}
	return nil
}

// TestDifferentialLSH is the approximate join's axis of the harness: on
// every shape, the LSH join must (1) return one row per outer document
// in outer order, (2) achieve measured recall ≥ the configured floor
// against the exact ground truth, (3) show perfect precision — every
// returned similarity byte-for-byte equal to the exact scorer on the
// underlying documents, and (4) produce results and Stats identical to
// the serial run from the parallel variant at workers 1, 2 and 7.
func TestDifferentialLSH(t *testing.T) {
	floors := lshRecallFloors()
	for _, shape := range diffShapes() {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			baseEnv := buildDiffEnv(t, shape, 1)
			exact := reference(t, baseEnv.c2, baseEnv.c1, shape.lambda, rawScorer(t))

			e := buildDiffEnv(t, shape, 1)
			sc := buildDiffLSH(t, e, lshDiffConfig)
			opts := shape.options()
			opts.LSH = sc
			got, st, err := JoinLSH(e.inputs(), opts)
			if err != nil {
				t.Fatalf("JoinLSH: %v", err)
			}
			if st.Algorithm != LSH || !st.LSH.Enabled {
				t.Fatalf("stats not marked as LSH: %+v", st)
			}

			// (1) Row shape: same outer documents, same order, non-nil
			// match lists (empty rows must still appear).
			if len(got) != len(exact) {
				t.Fatalf("LSH returned %d rows, exact %d", len(got), len(exact))
			}
			for i := range got {
				if got[i].Outer != exact[i].Outer {
					t.Fatalf("row %d outer %d, exact has %d", i, got[i].Outer, exact[i].Outer)
				}
				if got[i].Matches == nil {
					t.Fatalf("outer %d: nil match list", got[i].Outer)
				}
			}

			// (3) Perfect precision: re-score every returned pair.
			innerDocs := collectDocs(t, e.c1)
			outerDocs := collectDocs(t, e.c2)
			scorer := rawScorer(t)
			for _, res := range got {
				for _, m := range res.Matches {
					if m.Sim <= 0 {
						t.Fatalf("outer %d returned non-positive similarity %v for doc %d", res.Outer, m.Sim, m.Doc)
					}
					want := scorer.Score(outerDocs[res.Outer], innerDocs[m.Doc])
					if math.Float64bits(m.Sim) != math.Float64bits(want) {
						t.Fatalf("outer %d doc %d: returned sim %v (bits %x), exact scorer %v (bits %x)",
							res.Outer, m.Doc, m.Sim, math.Float64bits(m.Sim), want, math.Float64bits(want))
					}
				}
			}

			// (2) Measured recall over the exact top-λ pair set.
			type pair struct{ o, i uint32 }
			exactPairs := make(map[pair]bool)
			for _, res := range exact {
				for _, m := range res.Matches {
					exactPairs[pair{res.Outer, m.Doc}] = true
				}
			}
			hits := 0
			for _, res := range got {
				for _, m := range res.Matches {
					if exactPairs[pair{res.Outer, m.Doc}] {
						hits++
					}
				}
			}
			recall := 1.0
			if len(exactPairs) > 0 {
				recall = float64(hits) / float64(len(exactPairs))
			}
			floor, ok := floors[shape.name]
			if !ok {
				t.Fatalf("no recall floor configured for shape %q", shape.name)
			}
			if recall < floor {
				t.Errorf("measured recall %.4f below floor %.2f (%d of %d exact pairs)",
					recall, floor, hits, len(exactPairs))
			}
			t.Logf("recall %.4f (floor %.2f), %d candidates, %d pages skipped",
				recall, floor, st.LSH.Candidates, st.LSH.PagesSkipped)

			// (4) Serial ≡ parallel: results and Stats byte-identical at
			// every worker count, each from a fresh disk.
			for _, w := range []int{1, 2, 7} {
				ep := buildDiffEnv(t, shape, 1)
				scp := buildDiffLSH(t, ep, lshDiffConfig)
				po := shape.options()
				po.LSH = scp
				pres, pst, err := JoinLSHParallel(ep.inputs(), po, w)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if err := exactSameResults(got, pres); err != nil {
					t.Errorf("workers=%d results differ from serial: %v", w, err)
				}
				if *st != *pst {
					t.Errorf("workers=%d stats differ:\nserial   %+v\nparallel %+v", w, *st, *pst)
				}
			}
		})
	}
}

// TestDifferentialReference anchors the harness itself: the serial HHNL
// baseline must match the brute-force reference on every shape, so shape
// bugs cannot hide behind all algorithms agreeing on a wrong answer.
func TestDifferentialReference(t *testing.T) {
	for _, shape := range diffShapes() {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			e := buildDiffEnv(t, shape, 1)
			got, _, err := JoinHHNL(e.inputs(), shape.options())
			if err != nil {
				t.Fatal(err)
			}
			want := reference(t, e.c2, e.c1, shape.lambda, rawScorer(t))
			if err := sameResults(want, got); err != nil {
				t.Fatal(err)
			}
			if errors.Is(err, ErrInsufficientMemory) {
				t.Fatal("shape parameters must be feasible")
			}
		})
	}
}

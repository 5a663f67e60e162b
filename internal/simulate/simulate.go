// Package simulate reproduces the paper's Section 6 simulation study.
//
// The paper compares the six cost formulas (hhs/hhr, hvs/hvr, vvs/vvr)
// over the statistics of the TREC collections WSJ, FR and DOE in five
// experiment groups; the conference version prints the collection
// statistics table and a summary of findings, with the detailed tables in
// the cited technical report. This package regenerates the full grid:
//
//	Table 1  — collection statistics (reproduced at P = 4000; see the
//	           note on the paper's page-size arithmetic)
//	Group 1  — self joins, varying B and α
//	Group 2  — all six ordered cross-collection pairs, varying B
//	Group 3  — a selection leaves m documents of an originally large C2
//	Group 4  — an originally small C2 of m documents derived from C1
//	Group 5  — fewer-but-larger-document transforms (VVM's sweet spot)
//
// plus a programmatic check of the paper's five summary findings and, as
// the empirical counterpart the paper leaves to future work, Measured —
// which runs the three real algorithms on scaled synthetic corpora and
// compares measured page I/O against the formulas.
package simulate

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"textjoin/internal/collection"
	"textjoin/internal/core"
	"textjoin/internal/corpus"
	"textjoin/internal/costmodel"
	"textjoin/internal/invfile"
	"textjoin/internal/iosim"
	"textjoin/internal/reqtrace"
	"textjoin/internal/telemetry"
)

// Sweep values used by the groups.
var (
	// BSweep is the memory sizes (pages) swept in Groups 1 and 2,
	// bracketing the paper's base value 10000.
	BSweep = []int64{2500, 5000, 10000, 20000, 40000, 80000}
	// AlphaSweep is the random/sequential cost ratios swept in Group 1.
	AlphaSweep = []float64{1, 2, 5, 8, 10}
	// MSweep is the participating-document counts swept in Groups 3
	// and 4.
	MSweep = []int64{1, 10, 50, 100, 400, 1600}
	// FactorSweep is the fewer-but-larger factors swept in Group 5.
	FactorSweep = []int64{1, 4, 16, 64, 256}
)

// CostColumns is the column order of the cost tables.
var CostColumns = []string{"hhs", "hhr", "hvs", "hvr", "vvs", "vvr"}

// Row is one line of a simulation table.
type Row struct {
	// Label names the swept parameter value ("B=10000", "m=50", ...).
	Label string
	// Costs maps column name to cost in sequential-page units.
	Costs map[string]float64
	// Chosen is the integrated algorithm's pick for this row.
	Chosen string
}

// Table is one simulation result table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	width := 12
	fmt.Fprintf(&b, "%-14s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	fmt.Fprintf(&b, "%*s\n", width, "chosen")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s", r.Label)
		for _, c := range t.Columns {
			v, ok := r.Costs[c]
			switch {
			case !ok:
				fmt.Fprintf(&b, "%*s", width, "-")
			case math.IsInf(v, 1):
				fmt.Fprintf(&b, "%*s", width, "inf")
			default:
				fmt.Fprintf(&b, "%*.0f", width, v)
			}
		}
		fmt.Fprintf(&b, "%*s\n", width, r.Chosen)
	}
	return b.String()
}

// costRow evaluates all six formulas for one configuration.
func costRow(label string, in costmodel.Input, sys costmodel.System, q costmodel.Query) Row {
	chosen, _ := costmodel.Choose(in, sys, q)
	return Row{
		Label: label,
		Costs: map[string]float64{
			"hhs": costmodel.HHNLSeq(in, sys, q),
			"hhr": costmodel.HHNLRand(in, sys, q),
			"hvs": costmodel.HVNLSeq(in, sys, q),
			"hvr": costmodel.HVNLRand(in, sys, q),
			"vvs": costmodel.VVMSeq(in, sys, q),
			"vvr": costmodel.VVMRand(in, sys, q),
		},
		Chosen: chosen.String(),
	}
}

// Table1 reproduces the paper's collection statistics table. The derived
// rows only reproduce with P = 4000 bytes even though the paper says
// "4k"; the table is therefore evaluated at 4000 and the page size noted
// in the title.
func Table1() *Table {
	sys := costmodel.System{B: 10000, P: 4000, Alpha: 5}
	t := &Table{
		ID:      "table1",
		Title:   "collection statistics (derived rows at P=4000 bytes, as the paper's arithmetic implies)",
		Columns: []string{"WSJ", "FR", "DOE"},
	}
	rows := []struct {
		name string
		get  func(costmodel.Collection) float64
	}{
		{"#documents", func(c costmodel.Collection) float64 { return float64(c.N) }},
		{"#terms/doc", func(c costmodel.Collection) float64 { return c.K }},
		{"#dist.terms", func(c costmodel.Collection) float64 { return float64(c.T) }},
		{"size(pages)", func(c costmodel.Collection) float64 { return c.D(sys) }},
		{"S(doc pages)", func(c costmodel.Collection) float64 { return c.S(sys) * 1000 }}, // ×1000 for display
		{"J(entry pg)", func(c costmodel.Collection) float64 { return c.J(sys) * 1000 }},
	}
	stats := []costmodel.Collection{corpus.WSJ.Stats(), corpus.FR.Stats(), corpus.DOE.Stats()}
	for _, r := range rows {
		row := Row{Label: r.name, Costs: map[string]float64{}}
		for i, name := range t.Columns {
			row.Costs[name] = r.get(stats[i])
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func baseQuery() costmodel.Query { return costmodel.DefaultQuery() }

// Group1 runs self joins (C1 = C2 = each real collection), sweeping B with
// α at its base value and sweeping α with B at its base value: the
// paper's six Group 1 simulations.
func Group1() []*Table {
	var tables []*Table
	for _, p := range corpus.Profiles() {
		c := p.Stats()
		in := costmodel.Input{C1: c, C2: c}

		bt := &Table{
			ID:      fmt.Sprintf("group1-%s-B", strings.ToLower(p.Name)),
			Title:   fmt.Sprintf("self join %s ⋈ %s, varying B (α=5)", p.Name, p.Name),
			Columns: CostColumns,
		}
		for _, b := range BSweep {
			sys := costmodel.System{B: b, P: 4096, Alpha: 5}
			bt.Rows = append(bt.Rows, costRow(fmt.Sprintf("B=%d", b), in, sys, baseQuery()))
		}
		tables = append(tables, bt)

		at := &Table{
			ID:      fmt.Sprintf("group1-%s-alpha", strings.ToLower(p.Name)),
			Title:   fmt.Sprintf("self join %s ⋈ %s, varying α (B=10000)", p.Name, p.Name),
			Columns: CostColumns,
		}
		for _, a := range AlphaSweep {
			sys := costmodel.System{B: 10000, P: 4096, Alpha: a}
			at.Rows = append(at.Rows, costRow(fmt.Sprintf("alpha=%g", a), in, sys, baseQuery()))
		}
		tables = append(tables, at)
	}
	return tables
}

// Group2 runs all six ordered pairs of distinct real collections, sweeping
// B.
func Group2() []*Table {
	var tables []*Table
	ps := corpus.Profiles()
	for _, p1 := range ps {
		for _, p2 := range ps {
			if p1.Name == p2.Name {
				continue
			}
			in := costmodel.Input{C1: p1.Stats(), C2: p2.Stats()}
			t := &Table{
				ID:      fmt.Sprintf("group2-%s-%s", strings.ToLower(p1.Name), strings.ToLower(p2.Name)),
				Title:   fmt.Sprintf("cross join C1=%s, C2=%s, varying B (α=5)", p1.Name, p2.Name),
				Columns: CostColumns,
			}
			for _, b := range BSweep {
				sys := costmodel.System{B: b, P: 4096, Alpha: 5}
				t.Rows = append(t.Rows, costRow(fmt.Sprintf("B=%d", b), in, sys, baseQuery()))
			}
			tables = append(tables, t)
		}
	}
	return tables
}

// group34Input builds the cost input for Groups 3 and 4: m participating
// documents of C2 with per-document shape inherited from the profile. For
// Group 3 (originallyLarge) the documents are read randomly and the
// inverted file on C2 keeps the original collection's statistics; for
// Group 4 both shrink with the small collection.
func group34Input(p corpus.Profile, m int64, originallyLarge bool) costmodel.Input {
	full := p.Stats()
	sub := costmodel.Collection{
		N: m,
		K: p.TermsPerDoc,
		T: int64(collection.VocabularyGrowth(float64(p.DistinctTerms), p.TermsPerDoc, float64(m))),
	}
	in := costmodel.Input{C1: full, C2: sub, InvOnC1: full}
	if originallyLarge {
		in.InvOnC2 = full
		in.C2Random = true
	} else {
		in.InvOnC2 = sub
	}
	return in
}

// Group3 sweeps the number m of documents surviving a selection on an
// originally large C2 (C1 = C2 = each real collection; base B and α).
func Group3() []*Table {
	var tables []*Table
	for _, p := range corpus.Profiles() {
		t := &Table{
			ID:      fmt.Sprintf("group3-%s", strings.ToLower(p.Name)),
			Title:   fmt.Sprintf("selection leaves m docs of originally large C2 (C1=%s)", p.Name),
			Columns: CostColumns,
		}
		for _, m := range MSweep {
			in := group34Input(p, m, true)
			t.Rows = append(t.Rows, costRow(fmt.Sprintf("m=%d", m), in, costmodel.DefaultSystem(), baseQuery()))
		}
		tables = append(tables, t)
	}
	return tables
}

// Group4 sweeps the size m of an ORIGINALLY small C2 derived from C1.
func Group4() []*Table {
	var tables []*Table
	for _, p := range corpus.Profiles() {
		t := &Table{
			ID:      fmt.Sprintf("group4-%s", strings.ToLower(p.Name)),
			Title:   fmt.Sprintf("originally small C2 of m docs derived from C1=%s", p.Name),
			Columns: CostColumns,
		}
		for _, m := range MSweep {
			in := group34Input(p, m, false)
			t.Rows = append(t.Rows, costRow(fmt.Sprintf("m=%d", m), in, costmodel.DefaultSystem(), baseQuery()))
		}
		tables = append(tables, t)
	}
	return tables
}

// Group5 applies the fewer-but-larger-documents transform to each real
// collection (C1 = C2 = transformed), sweeping the factor. This is the
// experiment "especially aimed at observing the behavior of Algorithm
// VVM".
func Group5() []*Table {
	var tables []*Table
	for _, p := range corpus.Profiles() {
		t := &Table{
			ID:      fmt.Sprintf("group5-%s", strings.ToLower(p.Name)),
			Title:   fmt.Sprintf("fewer but larger docs: %s with N/f docs of K·f terms", p.Name),
			Columns: CostColumns,
		}
		for _, f := range FactorSweep {
			d := p.FewerLargerDocs(f).Stats()
			in := costmodel.Input{C1: d, C2: d}
			t.Rows = append(t.Rows, costRow(fmt.Sprintf("f=%d", f), in, costmodel.DefaultSystem(), baseQuery()))
		}
		tables = append(tables, t)
	}
	return tables
}

// Finding is one of the paper's summary findings checked against the
// regenerated grid.
type Finding struct {
	ID        int
	Statement string
	Holds     bool
	Evidence  string
}

// Findings re-derives the paper's five Section 6.1 findings from the
// regenerated grid and reports whether each holds.
func Findings() []Finding {
	var fs []Finding

	// Finding 1: costs differ drastically between algorithms in the
	// same situation.
	maxRatio := 0.0
	evidence1 := ""
	for _, t := range append(Group1(), Group5()...) {
		for _, r := range t.Rows {
			lo, hi := math.Inf(1), 0.0
			for _, c := range []string{"hhs", "hvs", "vvs"} {
				v := r.Costs[c]
				if math.IsInf(v, 1) {
					continue
				}
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
			if lo > 0 && hi/lo > maxRatio {
				maxRatio = hi / lo
				evidence1 = fmt.Sprintf("%s %s: best %.0f vs worst %.0f (%.0f×)", t.ID, r.Label, lo, hi, hi/lo)
			}
		}
	}
	fs = append(fs, Finding{
		ID:        1,
		Statement: "the cost of one algorithm can differ drastically from another's in the same situation",
		Holds:     maxRatio > 10,
		Evidence:  evidence1,
	})

	// Finding 2: HVNL tends to win when the participating C2 has very
	// few documents. The paper hedges the threshold ("M is likely to be
	// limited by 100" and it "mainly depends on the number of terms in
	// each document"), so the check is: HVNL wins every m=1
	// configuration, wins a substantial share of m ≤ 100
	// configurations, and never wins past m = 100.
	wins, total, winsAtOne, totalAtOne, winsBeyond := 0, 0, 0, 0, 0
	for _, t := range append(Group3(), Group4()...) {
		for _, r := range t.Rows {
			var m int64
			fmt.Sscanf(r.Label, "m=%d", &m)
			switch {
			case m == 1:
				totalAtOne++
				if r.Chosen == "HVNL" {
					winsAtOne++
				}
				fallthrough
			case m <= 100:
				total++
				if r.Chosen == "HVNL" {
					wins++
				}
			default:
				if r.Chosen == "HVNL" {
					winsBeyond++
				}
			}
		}
	}
	fs = append(fs, Finding{
		ID:        2,
		Statement: "with very few participating C2 documents HVNL has a very good chance to win, with the threshold below m ≈ 100",
		Holds:     winsAtOne == totalAtOne && wins*3 >= total && winsBeyond == 0,
		Evidence: fmt.Sprintf("HVNL chosen in %d/%d m=1 configs, %d/%d m≤100 configs, %d configs beyond m=100",
			winsAtOne, totalAtOne, wins, total, winsBeyond),
	})

	// Finding 3: VVM wins when N1·N2 < 10000·B and the collections are
	// too large for memory (Group 5 at larger factors).
	vvmWins, vvmTotal := 0, 0
	sys := costmodel.DefaultSystem()
	for _, p := range corpus.Profiles() {
		for _, f := range FactorSweep {
			d := p.FewerLargerDocs(f).Stats()
			if float64(d.N)*float64(d.N) < float64(10000*sys.B) && d.D(sys) > float64(sys.B) {
				vvmTotal++
				in := costmodel.Input{C1: d, C2: d}
				alg, _ := costmodel.Choose(in, sys, baseQuery())
				if alg == costmodel.AlgVVM {
					vvmWins++
				}
			}
		}
	}
	fs = append(fs, Finding{
		ID:        3,
		Statement: "VVM wins when N1·N2 < 10000·B and both collections exceed memory",
		Holds:     vvmTotal > 0 && vvmWins == vvmTotal,
		Evidence:  fmt.Sprintf("VVM chosen in %d of %d qualifying configurations", vvmWins, vvmTotal),
	})

	// Finding 4: HHNL wins most other cases (Group 1/2 at base values).
	hhnlWins, otherTotal := 0, 0
	for _, t := range append(Group1(), Group2()...) {
		for _, r := range t.Rows {
			otherTotal++
			if r.Chosen == "HHNL" {
				hhnlWins++
			}
		}
	}
	fs = append(fs, Finding{
		ID:        4,
		Statement: "for most other cases the simple HHNL performs very well",
		Holds:     hhnlWins*2 > otherTotal,
		Evidence:  fmt.Sprintf("HHNL chosen in %d of %d full-collection configurations", hhnlWins, otherTotal),
	})

	// Finding 5: the random variants do not change the ranking except
	// for VVM.
	flips, flipsInvolvingVVM, comparisons := 0, 0, 0
	for _, t := range append(Group1(), Group2()...) {
		for _, r := range t.Rows {
			seqOrder := rankOrder(r.Costs["hhs"], r.Costs["hvs"], r.Costs["vvs"])
			randOrder := rankOrder(r.Costs["hhr"], r.Costs["hvr"], r.Costs["vvr"])
			comparisons++
			if seqOrder != randOrder {
				flips++
				if strings.Contains(diffPositions(seqOrder, randOrder), "v") {
					flipsInvolvingVVM++
				}
			}
		}
	}
	fs = append(fs, Finding{
		ID:        5,
		Statement: "random-variant costs change the ranking only where VVM is involved",
		Holds:     flips == flipsInvolvingVVM,
		Evidence:  fmt.Sprintf("%d of %d rankings flip between seq and rand; %d involve VVM", flips, comparisons, flipsInvolvingVVM),
	})
	return fs
}

// rankOrder returns a canonical string of the algorithms ordered by cost.
func rankOrder(h, v, m float64) string {
	type kv struct {
		name string
		c    float64
	}
	s := []kv{{"h", h}, {"n", v}, {"v", m}}
	sort.SliceStable(s, func(i, j int) bool { return s[i].c < s[j].c })
	return s[0].name + s[1].name + s[2].name
}

// diffPositions returns the names that moved between two rank orders.
func diffPositions(a, b string) string {
	var out strings.Builder
	for i := range a {
		if a[i] != b[i] {
			out.WriteByte(a[i])
			out.WriteByte(b[i])
		}
	}
	return out.String()
}

// FormatFindings renders the findings report.
func FormatFindings(fs []Finding) string {
	var b strings.Builder
	b.WriteString("== findings: paper's Section 6.1 summary, re-derived ==\n")
	for _, f := range fs {
		status := "HOLDS"
		if !f.Holds {
			status = "DOES NOT HOLD"
		}
		fmt.Fprintf(&b, "(%d) %s\n    -> %s: %s\n", f.ID, f.Statement, status, f.Evidence)
	}
	return b.String()
}

// MeasuredRow compares a real algorithm run against the model.
type MeasuredRow struct {
	Alg          string
	ModelSeq     float64
	ModelRand    float64
	MeasuredCost float64
	SeqReads     int64
	RandReads    int64
	Passes       int
}

// MeasuredResult is the outcome of one empirical experiment.
type MeasuredResult struct {
	Title string
	Rows  []MeasuredRow
}

// Format renders the measured-vs-model table.
func (m *MeasuredResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== measured: %s ==\n", m.Title)
	fmt.Fprintf(&b, "%-8s%12s%12s%12s%12s%12s%8s\n", "alg", "model-seq", "model-rand", "measured", "seqReads", "randReads", "passes")
	for _, r := range m.Rows {
		fmt.Fprintf(&b, "%-8s%12.0f%12.0f%12.0f%12d%12d%8d\n",
			r.Alg, r.ModelSeq, r.ModelRand, r.MeasuredCost, r.SeqReads, r.RandReads, r.Passes)
	}
	return b.String()
}

// Measured builds scaled synthetic corpora for the two profiles, runs all
// three real algorithms, and reports measured I/O cost next to the cost
// model evaluated at the scaled corpora's *measured* statistics. The
// measured cost should fall between the model's sequential and random
// variants and preserve the ranking.
func Measured(p1, p2 corpus.Profile, scale int64, memoryPages int64, seed int64) (*MeasuredResult, error) {
	return MeasuredTelemetry(p1, p2, scale, memoryPages, seed, nil, nil)
}

// MeasuredTelemetry is Measured with an optional telemetry collector
// attached to the simulated disk and every join, and an optional parent
// span under which every join hangs its phase spans. The model costs
// next to each measured cost are in the result itself (Format prints
// both).
func MeasuredTelemetry(p1, p2 corpus.Profile, scale int64, memoryPages int64, seed int64, tel *telemetry.Collector, trace *reqtrace.Span) (*MeasuredResult, error) {
	d := iosim.NewDisk(iosim.WithPageSize(4096), iosim.WithAlpha(5))
	c1, err := corpus.GenerateOn(d, "c1", p1.Scaled(scale), seed)
	if err != nil {
		return nil, err
	}
	c2, err := corpus.GenerateOn(d, "c2", p2.Scaled(scale), seed+1)
	if err != nil {
		return nil, err
	}
	inv1, err := buildInv(d, c1, "c1")
	if err != nil {
		return nil, err
	}
	inv2, err := buildInv(d, c2, "c2")
	if err != nil {
		return nil, err
	}
	d.ResetStats()
	d.SetCollector(tel)

	in := core.Inputs{Outer: c2, Inner: c1, InnerInv: inv1, OuterInv: inv2}
	opts := core.Options{Lambda: 20, MemoryPages: memoryPages, Telemetry: tel, Trace: trace}
	mi, err := core.ModelInput(in)
	if err != nil {
		return nil, err
	}
	sys := core.ModelSystem(in, opts)
	q := costmodel.Query{Lambda: 20, Delta: 0.1}

	res := &MeasuredResult{Title: fmt.Sprintf("C1=%s C2=%s scale=1/%d B=%d", p1.Name, p2.Name, scale, memoryPages)}
	type modelFns struct {
		alg  core.Algorithm
		seq  func(costmodel.Input, costmodel.System, costmodel.Query) float64
		rand func(costmodel.Input, costmodel.System, costmodel.Query) float64
	}
	for _, mf := range []modelFns{
		{core.HHNL, costmodel.HHNLSeq, costmodel.HHNLRand},
		{core.HVNL, costmodel.HVNLSeq, costmodel.HVNLRand},
		{core.VVM, costmodel.VVMSeq, costmodel.VVMRand},
	} {
		_, st, err := core.Join(mf.alg, in, opts)
		if err != nil {
			return nil, fmt.Errorf("measured %v: %w", mf.alg, err)
		}
		res.Rows = append(res.Rows, MeasuredRow{
			Alg:          mf.alg.String(),
			ModelSeq:     mf.seq(mi, sys, q),
			ModelRand:    mf.rand(mi, sys, q),
			MeasuredCost: st.Cost,
			SeqReads:     st.IO.SeqReads,
			RandReads:    st.IO.RandReads,
			Passes:       st.Passes,
		})
	}
	return res, nil
}

func buildInv(d *iosim.Disk, c *collection.Collection, prefix string) (*invfile.InvertedFile, error) {
	ef, err := d.Create(prefix + ".inv")
	if err != nil {
		return nil, err
	}
	tf, err := d.Create(prefix + ".bt")
	if err != nil {
		return nil, err
	}
	return invfile.Build(c, ef, tf)
}

// RunAll regenerates every analytic table: the paper's five groups in
// paper order, then the additional λ and δ sweeps.
func RunAll() []*Table {
	tables := []*Table{Table1()}
	tables = append(tables, Group1()...)
	tables = append(tables, Group2()...)
	tables = append(tables, Group3()...)
	tables = append(tables, Group4()...)
	tables = append(tables, Group5()...)
	tables = append(tables, GroupLambda()...)
	tables = append(tables, GroupDelta()...)
	return tables
}

package query

import (
	"sync/atomic"

	"fmt"
	"strings"

	"textjoin/internal/collection"
	"textjoin/internal/core"
	"textjoin/internal/costmodel"
	"textjoin/internal/document"
	"textjoin/internal/invfile"
	"textjoin/internal/lsh"
	"textjoin/internal/relation"
	"textjoin/internal/telemetry"
)

// TextBinding attaches the storage structures of a textual attribute: the
// document collection holding the attribute's values and (optionally) its
// inverted file with B+tree.
type TextBinding struct {
	Collection *collection.Collection
	Inverted   *invfile.InvertedFile
	// LSH is the collection's MinHash sidecar, or nil. When bound on the
	// inner side and the query carries a RECALL SLO, the planner may run
	// the approximate LSH join instead of an exact algorithm.
	LSH *lsh.Sidecar
}

// Catalog maps relation names to relations and textual attributes to
// their bindings.
type Catalog struct {
	relations map[string]*relation.Relation
	bindings  map[string]map[string]TextBinding
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		relations: make(map[string]*relation.Relation),
		bindings:  make(map[string]map[string]TextBinding),
	}
}

// Register adds a relation.
func (c *Catalog) Register(rel *relation.Relation) error {
	key := strings.ToLower(rel.Name())
	if _, dup := c.relations[key]; dup {
		return fmt.Errorf("query: relation %q already registered", rel.Name())
	}
	c.relations[key] = rel
	return nil
}

// Relation resolves a relation by name.
func (c *Catalog) Relation(name string) (*relation.Relation, error) {
	rel, ok := c.relations[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("query: unknown relation %q", name)
	}
	return rel, nil
}

// BindText attaches a text binding to relation.column. The column must
// exist and have type Text.
func (c *Catalog) BindText(relName, colName string, b TextBinding) error {
	rel, err := c.Relation(relName)
	if err != nil {
		return err
	}
	idx, err := rel.ColumnIndex(colName)
	if err != nil {
		return err
	}
	if rel.Columns()[idx].Type != relation.Text {
		return fmt.Errorf("query: column %s.%s is not of type text", relName, colName)
	}
	if b.Collection == nil {
		return fmt.Errorf("query: binding for %s.%s has no collection", relName, colName)
	}
	key := strings.ToLower(relName)
	if c.bindings[key] == nil {
		c.bindings[key] = make(map[string]TextBinding)
	}
	c.bindings[key][strings.ToLower(colName)] = b
	return nil
}

// textBinding resolves the binding of relation.column.
func (c *Catalog) textBinding(relName, colName string) (TextBinding, error) {
	b, ok := c.bindings[strings.ToLower(relName)][strings.ToLower(colName)]
	if !ok {
		return TextBinding{}, fmt.Errorf("query: no text binding for %s.%s", relName, colName)
	}
	return b, nil
}

// Options configures query execution.
type Options struct {
	// MemoryPages is the buffer budget B for the join (default 10000).
	MemoryPages int64
	// Force runs a specific algorithm instead of the integrated choice.
	Force *core.Algorithm
	// Weighting selects the similarity function.
	Weighting document.Weighting
	// ExplainOnly plans the query — selection push-down, statistics,
	// cost estimates, algorithm choice — without executing the join.
	// The ResultSet carries the plan (Algorithm, Estimates, Plan) and no
	// rows.
	ExplainOnly bool
	// Telemetry, when non-nil, collects counters and histograms from
	// the join the query executes.
	Telemetry *telemetry.Collector
}

// ResultSet is a query's output plus the planner's explanation.
type ResultSet struct {
	Columns []string
	Rows    [][]string
	// Algorithm actually executed (or chosen, under ExplainOnly).
	Algorithm core.Algorithm
	// Estimates are the integrated algorithm's cost estimates (nil when
	// forced).
	Estimates []costmodel.Estimate
	// JoinStats reports the join's I/O work (nil under ExplainOnly).
	JoinStats *core.Stats
	// Plan describes the chosen strategy in one human-readable line per
	// step (populated under ExplainOnly).
	Plan []string
}

// Engine executes parsed queries against a catalog.
type Engine struct {
	cat *Catalog
}

// NewEngine creates an engine.
func NewEngine(cat *Catalog) *Engine { return &Engine{cat: cat} }

// ExecuteString parses and executes src.
func (e *Engine) ExecuteString(src string, opts Options) (*ResultSet, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Execute(q, opts)
}

// boundTable is one FROM entry resolved against the catalog.
type boundTable struct {
	ref TableRef
	rel *relation.Relation
	// surviving are the row indices passing this table's selections.
	surviving []int
}

// Execute runs a parsed query: push selections down, choose the join
// algorithm by estimated cost, run it, and project the results.
func (e *Engine) Execute(q *Query, opts Options) (*ResultSet, error) {
	// Nil-safe: with no collector attached these are single nil checks.
	opts.Telemetry.Counter("query.statements").Add(1)
	if len(q.From) != 2 {
		return nil, fmt.Errorf("query: exactly two relations required, got %d", len(q.From))
	}
	tables := make(map[string]*boundTable, 2)
	ordered := make([]*boundTable, 0, 2)
	for _, ref := range q.From {
		rel, err := e.cat.Relation(ref.Relation)
		if err != nil {
			return nil, err
		}
		bt := &boundTable{ref: ref, rel: rel}
		key := strings.ToLower(ref.Name())
		if _, dup := tables[key]; dup {
			return nil, fmt.Errorf("query: duplicate table name %q", ref.Name())
		}
		tables[key] = bt
		ordered = append(ordered, bt)
	}

	resolve := func(col ColRef) (*boundTable, int, error) {
		if col.Table != "" {
			bt, ok := tables[strings.ToLower(col.Table)]
			if !ok {
				return nil, 0, fmt.Errorf("query: unknown table %q in %s", col.Table, col)
			}
			idx, err := bt.rel.ColumnIndex(col.Column)
			if err != nil {
				return nil, 0, err
			}
			return bt, idx, nil
		}
		var found *boundTable
		var foundIdx int
		for _, bt := range ordered {
			if idx, err := bt.rel.ColumnIndex(col.Column); err == nil {
				if found != nil {
					return nil, 0, fmt.Errorf("query: ambiguous column %q", col.Column)
				}
				found = bt
				foundIdx = idx
			}
		}
		if found == nil {
			return nil, 0, fmt.Errorf("query: unknown column %q", col.Column)
		}
		return found, foundIdx, nil
	}

	// Locate the textual join.
	sp, err := q.SimilarPredicate()
	if err != nil {
		return nil, err
	}
	innerTable, innerCol, err := resolve(sp.Left)
	if err != nil {
		return nil, err
	}
	outerTable, outerCol, err := resolve(sp.Right)
	if err != nil {
		return nil, err
	}
	if innerTable == outerTable {
		return nil, fmt.Errorf("query: SIMILAR_TO must join two different relations")
	}
	innerBind, err := e.cat.textBinding(innerTable.ref.Relation, innerTable.rel.Columns()[innerCol].Name)
	if err != nil {
		return nil, err
	}
	outerBind, err := e.cat.textBinding(outerTable.ref.Relation, outerTable.rel.Columns()[outerCol].Name)
	if err != nil {
		return nil, err
	}

	// Push selections down (Section 2: evaluate them first so only the
	// surviving documents participate in the join).
	for _, bt := range ordered {
		bt.surviving = allRows(bt.rel)
	}
	for _, p := range q.Where {
		switch pred := p.(type) {
		case *SimilarPred:
			continue
		case *LikePred:
			bt, idx, err := resolve(pred.Col)
			if err != nil {
				return nil, err
			}
			bt.surviving = filterRows(bt.rel, bt.surviving, func(row []relation.Value) bool {
				if row[idx].Kind != relation.String {
					return false
				}
				m := relation.Like(pred.Pattern, row[idx].Str)
				if pred.Negated {
					return !m
				}
				return m
			})
		case *ComparePred:
			bt, idx, err := resolve(pred.Col)
			if err != nil {
				return nil, err
			}
			lit := relation.StringValue(pred.Lit.Str)
			if !pred.Lit.IsString {
				lit = relation.IntValue(pred.Lit.Int)
			}
			var evalErr error
			bt.surviving = filterRows(bt.rel, bt.surviving, func(row []relation.Value) bool {
				ok, err := relation.Compare(row[idx], pred.Op, lit)
				if err != nil && evalErr == nil {
					evalErr = err
				}
				return ok
			})
			if evalErr != nil {
				return nil, evalErr
			}
		default:
			return nil, fmt.Errorf("query: unsupported predicate %T", p)
		}
	}

	// Build the join inputs. The outer side becomes a Subset when a
	// selection reduced it; the inner side, if reduced, is materialized
	// as an originally-small collection (the paper's Group 4 shape) with
	// a fresh inverted file.
	in := core.Inputs{Inner: innerBind.Collection, InnerInv: innerBind.Inverted, OuterInv: outerBind.Inverted}
	outerDocOf := outerTable.rel.DocIndex(outerCol)
	innerDocRow := innerTable.rel.DocIndex(innerCol)

	if len(outerTable.surviving) == outerTable.rel.NumRows() {
		in.Outer = outerBind.Collection
	} else {
		ids := make([]uint32, 0, len(outerTable.surviving))
		for _, rowIdx := range outerTable.surviving {
			v := outerTable.rel.Row(rowIdx)[outerCol]
			ids = append(ids, v.Doc)
		}
		sub, err := outerBind.Collection.Subset(ids)
		if err != nil {
			return nil, err
		}
		in.Outer = sub
	}

	innerIDMap := identityMap(innerBind.Collection.NumDocs())
	if len(innerTable.surviving) != innerTable.rel.NumRows() {
		reduced, idMap, err := materializeInner(innerBind, innerTable, innerCol)
		if err != nil {
			return nil, err
		}
		in.Inner = reduced.coll
		in.InnerInv = reduced.inv
		innerIDMap = idMap
	}

	// Choose and run. The RECALL SLO only reaches the planner when the
	// bound sidecar still describes the join's actual inner side: a
	// selection-materialized inner is a different collection, whose band
	// keys the sidecar does not cover.
	jopts := core.Options{
		Lambda:      sp.Lambda,
		MemoryPages: opts.MemoryPages,
		Weighting:   opts.Weighting,
		Telemetry:   opts.Telemetry,
	}
	if innerBind.LSH != nil && in.Inner == innerBind.Collection {
		jopts.LSH = innerBind.LSH
		jopts.RecallSLO = sp.Recall
	}
	rs := &ResultSet{}
	if opts.ExplainOnly {
		dec, err := core.Choose(in, jopts)
		if err != nil {
			return nil, err
		}
		if opts.Force != nil {
			dec.Chosen = *opts.Force
		}
		rs.Algorithm = dec.Chosen
		rs.Estimates = dec.Estimates
		rs.Plan = append(rs.Plan,
			fmt.Sprintf("textual join: %s SIMILAR_TO(%d) %s", sp.Left, sp.Lambda, sp.Right))
		rs.Plan = append(rs.Plan,
			fmt.Sprintf("outer %s: %d of %d documents after selections",
				outerTable.ref.Name(), len(outerTable.surviving), outerTable.rel.NumRows()))
		rs.Plan = append(rs.Plan,
			fmt.Sprintf("inner %s: %d of %d documents after selections",
				innerTable.ref.Name(), len(innerTable.surviving), innerTable.rel.NumRows()))
		for _, e := range dec.Estimates {
			rs.Plan = append(rs.Plan,
				fmt.Sprintf("estimate %v: seq=%.0f rand=%.0f", e.Algorithm, e.Seq, e.Rand))
		}
		if sp.Recall > 0 {
			rs.Plan = append(rs.Plan,
				fmt.Sprintf("recall SLO %.3g: estimated recall %.3g", sp.Recall, dec.EstimatedRecall))
		}
		rs.Plan = append(rs.Plan, fmt.Sprintf("chosen: %v", dec.Chosen))
		opts.Telemetry.Counter("query.explains").Add(1)
		return rs, nil
	}
	var results []core.Result
	var stats *core.Stats
	if opts.Force != nil {
		rs.Algorithm = *opts.Force
		results, stats, err = core.Join(rs.Algorithm, in, jopts)
	} else {
		var dec core.Decision
		results, stats, dec, err = core.JoinIntegrated(in, jopts)
		rs.Algorithm = dec.Chosen
		rs.Estimates = dec.Estimates
	}
	if err != nil {
		return nil, err
	}
	rs.JoinStats = stats

	// Project.
	type outCol struct {
		bt  *boundTable
		idx int
	}
	var cols []outCol
	for _, c := range q.Select {
		bt, idx, err := resolve(c)
		if err != nil {
			return nil, err
		}
		cols = append(cols, outCol{bt, idx})
		rs.Columns = append(rs.Columns, c.String())
	}
	rs.Columns = append(rs.Columns, "similarity")

	for _, res := range results {
		outerRow, ok := outerDocOf[res.Outer]
		if !ok {
			return nil, fmt.Errorf("query: result references unknown outer document %d", res.Outer)
		}
		for _, m := range res.Matches {
			origInner := innerIDMap[m.Doc]
			innerRow, ok := innerDocRow[origInner]
			if !ok {
				return nil, fmt.Errorf("query: result references unknown inner document %d", origInner)
			}
			row := make([]string, 0, len(cols)+1)
			for _, c := range cols {
				var v relation.Value
				switch c.bt {
				case outerTable:
					v = outerTable.rel.Row(outerRow)[c.idx]
				case innerTable:
					v = innerTable.rel.Row(innerRow)[c.idx]
				}
				row = append(row, v.Format())
			}
			row = append(row, fmt.Sprintf("%.4g", m.Sim))
			rs.Rows = append(rs.Rows, row)
		}
	}
	opts.Telemetry.Counter("query.rows").Add(int64(len(rs.Rows)))
	return rs, nil
}

func allRows(rel *relation.Relation) []int {
	out := make([]int, rel.NumRows())
	for i := range out {
		out[i] = i
	}
	return out
}

func filterRows(rel *relation.Relation, rows []int, pred func([]relation.Value) bool) []int {
	out := rows[:0]
	for _, i := range rows {
		if pred(rel.Row(i)) {
			out = append(out, i)
		}
	}
	return out
}

func identityMap(n int64) []uint32 {
	m := make([]uint32, n)
	for i := range m {
		m[i] = uint32(i)
	}
	return m
}

// materializedInner is a reduced inner collection with its fresh inverted
// file.
type materializedInner struct {
	coll *collection.Collection
	inv  *invfile.InvertedFile
}

// materializeSeq disambiguates temp-file names when several queries
// materialize selections of the same collection (atomic: engines may be
// shared across goroutines).
var materializeSeq atomic.Int64

// materializeInner copies the inner documents surviving a selection into
// an originally small collection (the paper's Group 4 shape) and builds
// its inverted file, so the join's λ candidates come only from selected
// documents.
func materializeInner(bind TextBinding, bt *boundTable, col int) (materializedInner, []uint32, error) {
	ids := make([]uint32, 0, len(bt.surviving))
	for _, rowIdx := range bt.surviving {
		ids = append(ids, bt.rel.Row(rowIdx)[col].Doc)
	}
	sub, err := bind.Collection.Subset(ids)
	if err != nil {
		return materializedInner{}, nil, err
	}
	disk := bind.Collection.File().Disk()
	prefix := fmt.Sprintf("%s.sel%d", bind.Collection.Name(), materializeSeq.Add(1))
	cf, err := disk.Create(prefix + ".docs")
	if err != nil {
		return materializedInner{}, nil, err
	}
	coll, idMap, err := collection.Materialize(prefix, cf, sub)
	if err != nil {
		return materializedInner{}, nil, err
	}
	ef, err := disk.Create(prefix + ".inv")
	if err != nil {
		return materializedInner{}, nil, err
	}
	tf, err := disk.Create(prefix + ".bt")
	if err != nil {
		return materializedInner{}, nil, err
	}
	inv, err := invfile.Build(coll, ef, tf)
	if err != nil {
		return materializedInner{}, nil, err
	}
	return materializedInner{coll: coll, inv: inv}, idMap, nil
}

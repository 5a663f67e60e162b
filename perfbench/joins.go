package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"textjoin"
)

// lambda is λ for every in-process join: the paper's base value.
const lambda = 20

// lshConfig is the banding shape of the join workloads' LSH sidecar:
// one row per band keeps low-Jaccard pairs reachable, as in the
// recall-vs-speed frontier's middle shape.
var lshConfig = textjoin.LSHConfig{Bands: 32, Rows: 1}

// pagedSigConfig is the signature code of the paged workload: one hash
// over coarse term buckets, so page and cluster aggregates of a
// clustered layout stay selective.
var pagedSigConfig = textjoin.SignatureConfig{Bits: 2048, Hashes: 1, Granularity: 512, ClusterDocs: 16}

// joinEnv is one join workload's inputs, built and loaded.
type joinEnv struct {
	ws         *textjoin.Workspace
	c1, c2     *textjoin.Collection
	inv1, inv2 *textjoin.InvertedFile
	pf         *textjoin.Prefilter
	lsh        *textjoin.LSHSidecar
	mem        int64
	lambda     int
	// autoPF offers the signature sidecars to the integrated planner.
	autoPF bool
	// saveMs and loadMs time the persistence round trip of a setup
	// that goes through Save and LoadWorkspace.
	saveMs, loadMs float64
}

func (e *joinEnv) inputs() textjoin.Inputs {
	return textjoin.Inputs{Outer: e.c2, Inner: e.c1, InnerInv: e.inv1, OuterInv: e.inv2}
}

// buildResident builds WSJ×WSJ at 1/128 scale: 771 documents a side,
// small enough that B = 10,000 pages holds everything in one pass.
func buildResident(seed int64) (*joinEnv, error) {
	return buildWSJ(seed, 128, lambda, lshConfig)
}

// buildWSJ generates a WSJ-profile pair at the given scale (inner from
// seed, outer from seed+1) with B = 10,000 pages and every structure
// built and loaded.
func buildWSJ(seed, scale int64, lambda int, lshCfg textjoin.LSHConfig) (*joinEnv, error) {
	ws := textjoin.NewWorkspace()
	var wsj textjoin.Profile
	for _, p := range textjoin.Profiles() {
		if p.Name == "WSJ" {
			wsj = p.Scaled(scale)
		}
	}
	gen := func(name string, seed int64) (*textjoin.Collection, error) {
		p := wsj
		p.Name = name
		return ws.GenerateCorpus(p, seed)
	}
	c1, err := gen("c1", seed)
	if err != nil {
		return nil, err
	}
	c2, err := gen("c2", seed+1)
	if err != nil {
		return nil, err
	}
	env := &joinEnv{ws: ws, c1: c1, c2: c2, mem: 10000, lambda: lambda}
	return env, env.buildStructures(textjoin.SignatureConfig{}, lshCfg)
}

// buildStructures builds both inverted files, both signature sidecars,
// the inner LSH sidecar and loads the term indexes.
func (e *joinEnv) buildStructures(sig textjoin.SignatureConfig, lshCfg textjoin.LSHConfig) error {
	var err error
	if e.inv1, err = e.ws.BuildInvertedFile(e.c1); err != nil {
		return err
	}
	if e.inv2, err = e.ws.BuildInvertedFile(e.c2); err != nil {
		return err
	}
	e.pf = &textjoin.Prefilter{}
	if e.pf.Inner, err = e.ws.BuildSignatures(e.c1, sig); err != nil {
		return err
	}
	if e.pf.Outer, err = e.ws.BuildSignatures(e.c2, sig); err != nil {
		return err
	}
	if e.lsh, err = e.ws.BuildLSH(e.c1, lshCfg); err != nil {
		return err
	}
	return e.loadIndexes()
}

func (e *joinEnv) loadIndexes() error {
	if _, err := e.inv1.LoadIndex(); err != nil {
		return err
	}
	if _, err := e.inv2.LoadIndex(); err != nil {
		return err
	}
	e.ws.ResetIOStats()
	return nil
}

// pagedDocs is the size of each paged collection.
const pagedDocs = 1024

// buildPaged builds the planted-topic pair: the inner side generated
// scattered and rebuilt through the clustered layout (reorder,
// signature sidecar, remapped inverted file), the outer side stored
// topic-contiguously. The whole workspace then goes through Save and
// LoadWorkspace, and every structure is reopened from the loaded copy.
func buildPaged(seed int64) (*joinEnv, error) {
	ws := textjoin.NewWorkspace()
	src, err := ws.NewCollection("c1src", plantedTopics(pagedDocs, 64, 16384, 16, true, seed))
	if err != nil {
		return nil, err
	}
	srcInv, err := ws.BuildInvertedFile(src)
	if err != nil {
		return nil, err
	}
	lay, err := ws.BuildClusteredLayout("c1", src, srcInv, pagedSigConfig)
	if err != nil {
		return nil, err
	}
	c2, err := ws.NewCollection("c2", plantedTopics(pagedDocs, 64, 16384, 16, false, seed+1))
	if err != nil {
		return nil, err
	}
	if _, err := ws.BuildInvertedFile(c2); err != nil {
		return nil, err
	}
	if _, err := ws.BuildSignatures(c2, pagedSigConfig); err != nil {
		return nil, err
	}
	if _, err := ws.BuildLSH(lay.Collection, lshConfig); err != nil {
		return nil, err
	}

	env := &joinEnv{mem: 64, lambda: lambda, autoPF: true}
	var buf bytes.Buffer
	t0 := time.Now()
	if _, err := ws.Save(&buf); err != nil {
		return nil, err
	}
	env.saveMs = msSince(t0)
	t0 = time.Now()
	if err := env.open(&buf, pagedDocs, pagedDocs); err != nil {
		return nil, err
	}
	env.loadMs = msSince(t0)
	return env, env.loadIndexes()
}

// open restores a saved workspace and reattaches every structure the
// joins use.
func (e *joinEnv) open(src *bytes.Buffer, n1, n2 int64) error {
	var err error
	if e.ws, err = textjoin.LoadWorkspace(src); err != nil {
		return err
	}
	if e.c1, err = e.ws.OpenCollection("c1", n1); err != nil {
		return err
	}
	if e.c2, err = e.ws.OpenCollection("c2", n2); err != nil {
		return err
	}
	if e.inv1, err = e.ws.OpenInvertedFile(e.c1); err != nil {
		return err
	}
	if e.inv2, err = e.ws.OpenInvertedFile(e.c2); err != nil {
		return err
	}
	e.pf = &textjoin.Prefilter{}
	if e.pf.Inner, err = e.ws.OpenSignatures(e.c1); err != nil {
		return err
	}
	if e.pf.Outer, err = e.ws.OpenSignatures(e.c2); err != nil {
		return err
	}
	e.lsh, err = e.ws.OpenLSH(e.c1)
	return err
}

// joinFunc runs one entry point on a workload's inputs. The decision is
// non-nil only for the integrated planner.
type joinFunc func(e *joinEnv, in textjoin.Inputs, o textjoin.Options) ([]textjoin.Result, *textjoin.JoinStats, *textjoin.Decision, error)

func serial(alg textjoin.Algorithm, prefilter bool) joinFunc {
	return func(e *joinEnv, in textjoin.Inputs, o textjoin.Options) ([]textjoin.Result, *textjoin.JoinStats, *textjoin.Decision, error) {
		if prefilter {
			o.Prefilter = e.pf
		}
		r, st, err := textjoin.Join(alg, in, o)
		return r, st, nil, err
	}
}

func parallel(join func(textjoin.Inputs, textjoin.Options, int) ([]textjoin.Result, *textjoin.JoinStats, error)) joinFunc {
	return func(_ *joinEnv, in textjoin.Inputs, o textjoin.Options) ([]textjoin.Result, *textjoin.JoinStats, *textjoin.Decision, error) {
		r, st, err := join(in, o, 2)
		return r, st, nil, err
	}
}

// entries are the join entry points, by the name the metrics use. All
// but lsh are exact and must reproduce the brute-force reference.
var entries = map[string]joinFunc{
	"hhnl":    serial(textjoin.HHNL, false),
	"hvnl":    serial(textjoin.HVNL, false),
	"vvm":     serial(textjoin.VVM, false),
	"hhnl-w2": parallel(textjoin.JoinHHNLParallel),
	"hvnl-w2": parallel(textjoin.JoinHVNLParallel),
	"vvm-w2":  parallel(textjoin.JoinVVMParallel),
	"hhnl-pf": serial(textjoin.HHNL, true),
	"hvnl-pf": serial(textjoin.HVNL, true),
	"lsh": func(e *joinEnv, in textjoin.Inputs, o textjoin.Options) ([]textjoin.Result, *textjoin.JoinStats, *textjoin.Decision, error) {
		o.LSH = e.lsh
		r, st, err := textjoin.JoinLSH(in, o)
		return r, st, nil, err
	},
	"auto": func(e *joinEnv, in textjoin.Inputs, o textjoin.Options) ([]textjoin.Result, *textjoin.JoinStats, *textjoin.Decision, error) {
		if e.autoPF {
			o.Prefilter = e.pf
		}
		r, st, dec, err := textjoin.JoinIntegrated(in, o)
		return r, st, &dec, err
	},
}

// allEntries is every entry point in the order traced runs use; the
// per-layer core.join_ms.<entry> rows follow it.
var allEntries = []string{"hhnl", "hvnl", "vvm", "hhnl-w2", "hvnl-w2", "vvm-w2", "hhnl-pf", "hvnl-pf", "lsh", "auto"}

// op is one timed join.
type op struct {
	entry     string
	traced    bool
	wall, cpu time.Duration
	st        *textjoin.JoinStats
	dec       *textjoin.Decision
	matches   int
}

// joinRunner runs entry points against one workload and checks every
// output against the reference.
type joinRunner struct {
	env     *joinEnv
	ref     *reference
	log     *spanLog
	lshHash string
	recall  float64
	tally
}

// run executes one op of the entry from a collected heap and parked
// heads; the output check runs after the clocks stop.
func (r *joinRunner) run(name string, traced bool) (op, bool) {
	opts := textjoin.Options{Lambda: r.env.lambda, MemoryPages: r.env.mem}
	var root *textjoin.RequestSpan
	if traced {
		root = r.log.start("op")
		root.SetAttr("entry", name)
		opts.Trace = root
	}
	runtime.GC()
	r.env.ws.ParkHeads()
	c0, t0 := selfCPU(), time.Now()
	res, st, dec, err := entries[name](r.env, r.env.inputs(), opts)
	wall, cpu := time.Since(t0), selfCPU()-c0
	r.log.finish(root)
	if err == nil {
		err = r.check(name, res)
	}
	if !r.count(err, name) {
		return op{}, false
	}
	n := 0
	for _, x := range res {
		n += len(x.Matches)
	}
	return op{entry: name, traced: traced, wall: wall, cpu: cpu, st: st, dec: dec, matches: n}, true
}

// check compares exact entries' results with the reference by hash; the
// approximate entry is verified pair by pair once and must then repeat
// that verified output exactly.
func (r *joinRunner) check(name string, res []textjoin.Result) error {
	h := hashResults(res)
	switch {
	case name != "lsh":
		if h != r.ref.hash {
			return fmt.Errorf("results differ from the brute-force reference")
		}
	case r.lshHash == "":
		if err := r.ref.checkApprox(res); err != nil {
			return err
		}
		r.lshHash = h
		r.recall = ratio(r.ref.recall(res))
	case h != r.lshHash:
		return fmt.Errorf("approximate results changed between runs")
	}
	return nil
}

// rounds runs round-robin rounds over names: one op of each entry per
// round, starting one entry later each round, until budget has passed
// (and at least minRounds ran). The first warmup rounds are discarded.
// In a traced run every entry runs twice per round, untraced and
// traced, alternating which goes first.
func (r *joinRunner) rounds(names []string, warmup, minRounds int, budget time.Duration, traced bool) [][]op {
	var out [][]op
	var start time.Time
	for i := 0; ; i++ {
		if i == warmup {
			start = time.Now()
		}
		if i >= warmup && len(out) >= minRounds && time.Since(start) >= budget {
			return out
		}
		var round []op
		for j := range names {
			name := names[(i+j)%len(names)]
			modes := []bool{false}
			if traced {
				modes = []bool{i%2 == 1, i%2 == 0}
			}
			for _, m := range modes {
				if o, ok := r.run(name, m); ok {
					round = append(round, o)
				}
			}
		}
		if i >= warmup {
			out = append(out, round)
		}
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

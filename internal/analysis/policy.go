package analysis

// Policy is the checked-in table of repo-specific facts the analyzers
// enforce. DESIGN.md §11 documents it as the source of truth for the
// package DAG: a PR that adds a dependency edge must extend this table,
// which makes layering changes reviewable instead of accidental.
type Policy struct {
	// ImportLayer is the package DAG. Key: module-relative package
	// path. Value: the complete list of module-internal packages it may
	// import (stdlib is always allowed; anything outside the module is
	// never allowed — the repo is dependency-free by design). Every
	// package under internal/ MUST have an entry: an internal package
	// missing from the table is itself a violation, so new packages
	// declare their layer on arrival. Packages outside internal/
	// (the facade, cmd/*, examples/*) may import any module package
	// except that nothing may import cmd/* binaries.
	ImportLayer map[string][]string

	// MapDeterminism lists the result-producing packages in which a
	// `for range` over a map is flagged unless the loop's function
	// later feeds a sort (or the site carries an ignore directive).
	MapDeterminism []string

	// WallClockExempt lists the internal packages allowed to read the
	// wall clock and global rand state (none in the live policy).
	// Everything else under internal/ must stay deterministic so
	// benchreport baselines remain byte-stable.
	WallClockExempt []string

	// NilRecv maps a package to the types whose exported
	// pointer-receiver methods must begin with a nil-receiver guard
	// (the telemetry disabled-path contract).
	NilRecv map[string][]string

	// MutexScope lists the packages where holding a mutex across a
	// call into a MutexForbidden package is flagged — the
	// scrape-lock-free promise of the observability layer.
	MutexScope []string

	// MutexForbidden lists the module-relative packages whose
	// functions and methods must not be called under a held lock
	// within MutexScope (direct calls only).
	MutexForbidden []string

	// MutexJoinScope lists the packages (the serving and benchmark
	// front ends under cmd/) in which holding a mutex across a facade
	// Join* call is flagged. A handler that runs a whole join under a
	// lock serializes every concurrent request behind that join's
	// simulated device I/O; the serving path must snapshot a view
	// under a short lock and run the join unlocked.
	MutexJoinScope []string

	// SpanScope lists the request-path packages in which spanhygiene
	// tracks trace spans: every span started there must be ended on
	// all return paths, deferred, or handed off.
	SpanScope []string

	// SpanPackages lists the module-relative packages whose
	// End()-bearing named types count as spans for spanhygiene. A
	// named type outside these packages that wraps one of them in a
	// struct field (a per-package phase-span wrapper) counts too.
	SpanPackages []string

	// Resources is the acquire→release pairing table for the CFG-based
	// resourceleak analyzer: each rule names an acquiring function and
	// the release method its result owes on every path to exit.
	Resources []ResourceRule

	// ErrDrop lists the package scopes (prefix semantics; "." is the
	// module root) in which the errdrop analyzer polices dropped
	// errors: _-assignments, bare-statement discards, and error values
	// overwritten or abandoned before being consulted.
	ErrDrop []string

	// ErrDropExempt lists callee import paths whose returned errors are
	// vacuous by contract (fmt printers, in-memory buffer and hash
	// writes) and may be discarded without a directive.
	ErrDropExempt []string

	// LockOrder lists the package scopes in which lockorder builds the
	// lock-acquisition order graph and reports cycles and recursive
	// acquisitions.
	LockOrder []string
}

// ResourceRule pairs an acquiring call with the release method its
// result must see on every path. Pkg is "." for the module root, a
// module-relative path for internal packages, or a stdlib import path;
// Call is the acquiring function or method name; Release the method
// that frees the result. Scope, when non-empty, restricts enforcement
// to the listed package prefixes.
type ResourceRule struct {
	Pkg     string
	Call    string
	Release string
	Scope   []string
}

// DefaultPolicy returns the live repo's policy. The ImportLayer table
// transcribes the DESIGN.md layer diagram: telemetry is zero-dep,
// accum/codec/costmodel/relation/topk/analysis are stdlib-only,
// document sits one rung above codec, metrics sees only telemetry
// among internal packages, and the join core is the only package that
// may pull the whole storage stack together.
func DefaultPolicy() *Policy {
	return &Policy{
		ImportLayer: map[string][]string{
			"internal/accum":     {},
			"internal/analysis":  {},
			"internal/codec":     {},
			"internal/costmodel": {},
			"internal/relation":  {},
			"internal/reqtrace":  {},
			"internal/telemetry": {},
			"internal/topk":      {},

			"internal/document": {"internal/codec"},
			"internal/iosim":    {"internal/telemetry"},
			"internal/metrics":  {"internal/telemetry"},
			"internal/slo":      {"internal/metrics", "internal/telemetry"},

			"internal/btree":      {"internal/codec", "internal/iosim"},
			"internal/termmap":    {"internal/codec", "internal/document"},
			"internal/tokenize":   {"internal/document", "internal/termmap"},
			"internal/collection": {"internal/codec", "internal/document", "internal/iosim"},
			"internal/stats":      {"internal/collection", "internal/document"},
			"internal/invfile":    {"internal/btree", "internal/codec", "internal/collection", "internal/iosim"},
			"internal/entrycache": {"internal/invfile", "internal/telemetry"},
			"internal/cluster":    {"internal/collection", "internal/document", "internal/iosim"},
			"internal/lsh":        {"internal/collection", "internal/document", "internal/iosim"},
			"internal/signature":  {"internal/collection", "internal/document", "internal/iosim"},
			"internal/corpus":     {"internal/collection", "internal/costmodel", "internal/document", "internal/iosim"},

			"internal/core": {
				"internal/accum", "internal/codec", "internal/collection",
				"internal/costmodel", "internal/document", "internal/entrycache",
				"internal/invfile", "internal/iosim", "internal/lsh",
				"internal/reqtrace", "internal/signature", "internal/stats",
				"internal/telemetry", "internal/topk",
			},
			"internal/query": {
				"internal/collection", "internal/core", "internal/costmodel",
				"internal/document", "internal/invfile", "internal/lsh",
				"internal/relation", "internal/telemetry",
			},
			"internal/simulate": {
				"internal/collection", "internal/core", "internal/corpus",
				"internal/costmodel", "internal/invfile", "internal/iosim",
				"internal/reqtrace", "internal/telemetry",
			},
		},
		MapDeterminism: []string{
			"internal/accum", "internal/core", "internal/invfile", "internal/query",
			"internal/lsh", "internal/metrics", "internal/reqtrace", "internal/slo",
		},
		NilRecv: map[string][]string{
			"internal/telemetry": {"Collector", "Counter", "Histogram", "Snapshot"},
			"internal/metrics":   {"Exporter"},
			"internal/reqtrace":  {"Tracer", "Span", "Recorder"},
			"internal/slo":       {"Engine"},
		},
		MutexScope:     []string{"internal/metrics", "internal/telemetry", "cmd/textjoind"},
		MutexForbidden: []string{"internal/iosim"},
		MutexJoinScope: []string{"cmd/benchreport", "cmd/textjoin", "cmd/textjoind"},
		SpanScope:      []string{"internal/core", "cmd/textjoind"},
		SpanPackages:   []string{"internal/reqtrace"},
		Resources: []ResourceRule{
			// iosim view sessions: a leaked view never merges its IOStats
			// into the shared ledger, corrupting the Section-5 accounting.
			{Pkg: "internal/iosim", Call: "View", Release: "Close"},
			// The facade's Snapshot is the same session one layer up.
			{Pkg: ".", Call: "Snapshot", Release: "Close"},
			// Network listeners and OS file handles in the front ends.
			{Pkg: "net", Call: "Listen", Release: "Close"},
			{Pkg: "os", Call: "Open", Release: "Close", Scope: []string{"cmd"}},
			{Pkg: "os", Call: "Create", Release: "Close", Scope: []string{"cmd"}},
			{Pkg: "os", Call: "OpenFile", Release: "Close", Scope: []string{"cmd"}},
		},
		ErrDrop: []string{
			"internal/iosim", "internal/btree", "internal/invfile",
			"internal/collection", "internal/signature", "internal/lsh",
			".", "cmd",
		},
		ErrDropExempt: []string{
			"fmt", "strings", "bytes", "hash", "hash/fnv", "hash/maphash",
			"math/rand",
		},
		LockOrder: []string{"internal", "cmd", "."},
	}
}

// matchScope reports whether the module-relative package path rel falls
// under any listed scope. "." matches only the module root; any other
// entry matches itself and everything beneath it.
func matchScope(list []string, rel string) bool {
	for _, s := range list {
		if s == "." {
			if rel == "" {
				return true
			}
			continue
		}
		if rel == s || len(rel) > len(s) && rel[:len(s)] == s && rel[len(s)] == '/' {
			return true
		}
	}
	return false
}

// Analyzers instantiates the full analyzer suite over a policy.
func Analyzers(pol *Policy) []Analyzer {
	return []Analyzer{
		&importLayer{pol: pol},
		&mapDeterminism{pol: pol},
		&wallClock{pol: pol},
		&nilRecv{pol: pol},
		&mutexHygiene{pol: pol},
		&spanHygiene{pol: pol},
		&resourceLeak{pol: pol},
		&errDrop{pol: pol},
		&lockOrder{pol: pol},
	}
}

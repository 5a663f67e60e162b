package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"

	"textjoin"
)

// tally counts attempted and failed operations and keeps the first
// failure for the report.
type tally struct {
	attempted, failed int
	firstErr          error
}

// count records one operation's outcome and reports whether it
// succeeded.
func (t *tally) count(err error, what string) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if t.firstErr == nil {
		t.firstErr = fmt.Errorf("%s: %w", what, err)
	}
	return false
}

// reference is the brute-force answer of a join: every inner document
// scored against every outer document, the λ best kept with the
// library's tie-break (higher similarity first, then lower id).
type reference struct {
	results      []textjoin.Result
	hash         string
	inner, outer []*textjoin.Document
}

func readAll(c *textjoin.Collection) ([]*textjoin.Document, error) {
	var docs []*textjoin.Document
	sc := c.Scan()
	for {
		d, err := sc.Next()
		if errors.Is(err, io.EOF) {
			return docs, nil
		}
		if err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
}

func bruteForce(inner, outer []*textjoin.Document, lambda int) *reference {
	ref := &reference{inner: inner, outer: outer}
	for _, o := range outer {
		var ms []textjoin.Match
		for _, d := range inner {
			if s := textjoin.Similarity(d, o); s > 0 {
				ms = append(ms, textjoin.Match{Doc: d.ID, Sim: s})
			}
		}
		sort.Slice(ms, func(i, j int) bool { return less(ms[i], ms[j]) })
		if len(ms) > lambda {
			ms = ms[:lambda]
		}
		ref.results = append(ref.results, textjoin.Result{Outer: o.ID, Matches: ms})
	}
	ref.hash = hashResults(ref.results)
	return ref
}

func less(a, b textjoin.Match) bool {
	if a.Sim != b.Sim {
		return a.Sim > b.Sim
	}
	return a.Doc < b.Doc
}

// hashResults fingerprints results: outer ids, match ids and the exact
// bits of every similarity, in order.
func hashResults(res []textjoin.Result) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range res {
		put(uint64(r.Outer))
		put(uint64(len(r.Matches)))
		for _, m := range r.Matches {
			put(uint64(m.Doc))
			put(math.Float64bits(m.Sim))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkApprox verifies an approximate answer: one result per outer
// document in order, at most λ distinct matches per document, ranked by
// the tie-break, each carrying the pair's exact similarity, and the
// k-th match never better than the exact k-th — a subset of the scored
// pairs that can only lose to the exact answer.
func (ref *reference) checkApprox(res []textjoin.Result) error {
	if len(res) != len(ref.results) {
		return fmt.Errorf("%d results for %d outer documents", len(res), len(ref.results))
	}
	for i, r := range res {
		want := ref.results[i]
		if r.Outer != want.Outer || len(r.Matches) > len(want.Matches) {
			return fmt.Errorf("outer %d: %d matches, reference has %d", r.Outer, len(r.Matches), len(want.Matches))
		}
		seen := map[uint32]bool{}
		for k, m := range r.Matches {
			if int(m.Doc) >= len(ref.inner) || seen[m.Doc] {
				return fmt.Errorf("outer %d: bad or repeated match %d", r.Outer, m.Doc)
			}
			seen[m.Doc] = true
			if exact := textjoin.Similarity(ref.inner[m.Doc], ref.outer[i]); m.Sim != exact || m.Sim <= 0 {
				return fmt.Errorf("outer %d, inner %d: similarity %v, exact %v", r.Outer, m.Doc, m.Sim, exact)
			}
			if k > 0 && !less(r.Matches[k-1], m) {
				return fmt.Errorf("outer %d: matches out of order", r.Outer)
			}
			if m.Sim > want.Matches[k].Sim {
				return fmt.Errorf("outer %d: match %d beats the exact answer", r.Outer, k)
			}
		}
	}
	return nil
}

// recall returns how many of the reference's (outer, inner) pairs res
// also returns, and how many pairs the reference has.
func (ref *reference) recall(res []textjoin.Result) (hit, total int) {
	for i, want := range ref.results {
		got := map[uint32]bool{}
		if i < len(res) {
			for _, m := range res[i].Matches {
				got[m.Doc] = true
			}
		}
		for _, m := range want.Matches {
			total++
			if got[m.Doc] {
				hit++
			}
		}
	}
	return hit, total
}

package core

import (
	"io"
	"runtime"
	"sync"

	"textjoin/internal/collection"
	"textjoin/internal/document"
)

// The paper's concluding remarks list "(3) develop algorithms that
// process textual joins in parallel" as further study. Every algorithm
// has one executor that takes a worker count: JoinX runs it with one
// worker, which is the serial algorithm, and JoinXParallel with
// resolveWorkers(w).
//
// The parallelization deliberately leaves all storage access on a single
// goroutine: the paper's cost model is about page I/O, and interleaving
// concurrent readers would corrupt the sequential/random classification
// (and model a different device). What parallelizes is the CPU side —
// similarity computation and accumulation — which the paper excludes from
// its cost model but which dominates wall-clock time in memory-resident
// runs. Results are identical to one worker's: each worker produces
// candidates for disjoint document pairs, and the top-λ merge of disjoint
// candidate sets equals the global top-λ.

// resolveWorkers maps a requested worker count to an effective one:
// 0 or less means GOMAXPROCS.
func resolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// fanOutChunk is how many scanned documents travel to a worker at once.
const fanOutChunk = 64

// chunkPool recycles fan-out chunk slices across batches and joins, so
// the steady state allocates nothing per chunk.
var chunkPool = sync.Pool{New: func() any {
	s := make([]*document.Document, 0, fanOutChunk)
	return &s
}}

// fanOutScan drains scan on the calling goroutine, in storage order, and
// hands the documents in chunks to a pool of workers, calling visit(w, d)
// on worker w for each. Documents come from the allocating Next because
// they outlive the scan step. All workers have returned when fanOutScan
// does, on error too.
func fanOutScan(scan collection.DocIterator, workers int, visit func(w int, d *document.Document)) error {
	// One buffered chunk per worker lets the scan run a chunk ahead of
	// each worker without queueing unbounded documents.
	chunks := make(chan *[]*document.Document, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for chunk := range chunks {
				for _, d := range *chunk {
					visit(w, d)
				}
				*chunk = (*chunk)[:0]
				chunkPool.Put(chunk)
			}
		}(w)
	}

	var scanErr error
	chunk := chunkPool.Get().(*[]*document.Document)
	for {
		d, err := scan.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			scanErr = err
			break
		}
		*chunk = append(*chunk, d)
		if len(*chunk) == fanOutChunk {
			chunks <- chunk
			chunk = chunkPool.Get().(*[]*document.Document)
		}
	}
	if len(*chunk) > 0 && scanErr == nil {
		chunks <- chunk
	}
	close(chunks)
	wg.Wait()
	return scanErr
}

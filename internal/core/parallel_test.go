package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"textjoin/internal/iosim"
)

func TestParallelHHNLMatchesSerial(t *testing.T) {
	e := buildEnv(t, 41, 40, 35, 60, 14, 256)
	opts := Options{Lambda: 5, MemoryPages: 60}
	serial, serialStats, err := JoinHHNL(e.inputs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		par, parStats, err := JoinHHNLParallel(e.inputs(), opts, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := sameResults(serial, par); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if parStats.Comparisons != serialStats.Comparisons {
			t.Errorf("workers=%d: comparisons %d vs serial %d", workers, parStats.Comparisons, serialStats.Comparisons)
		}
		// I/O is identical: the scan stays single-threaded.
		if parStats.IO.Reads() != serialStats.IO.Reads() {
			t.Errorf("workers=%d: reads %d vs serial %d", workers, parStats.IO.Reads(), serialStats.IO.Reads())
		}
	}
}

func TestParallelHHNLRejectsBackward(t *testing.T) {
	e := buildEnv(t, 42, 5, 5, 20, 8, 256)
	_, _, err := JoinHHNLParallel(e.inputs(), Options{Backward: true, MemoryPages: 50}, 2)
	if err == nil {
		t.Error("backward parallel: want error")
	}
}

func TestParallelVVMMatchesSerial(t *testing.T) {
	e := buildEnv(t, 43, 40, 35, 60, 14, 128)
	for _, opts := range []Options{
		{Lambda: 5, MemoryPages: 1000},          // single pass
		{Lambda: 5, MemoryPages: 8, Delta: 1.0}, // many passes
	} {
		serial, serialStats, err := JoinVVM(e.inputs(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			par, parStats, err := JoinVVMParallel(e.inputs(), opts, workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if err := sameResults(serial, par); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if parStats.Passes != serialStats.Passes {
				t.Errorf("workers=%d: passes %d vs %d", workers, parStats.Passes, serialStats.Passes)
			}
			if parStats.Accumulations != serialStats.Accumulations {
				t.Errorf("workers=%d: accumulations %d vs %d", workers, parStats.Accumulations, serialStats.Accumulations)
			}
			if parStats.IO.Reads() != serialStats.IO.Reads() {
				t.Errorf("workers=%d: reads %d vs %d", workers, parStats.IO.Reads(), serialStats.IO.Reads())
			}
		}
	}
}

func TestParallelVVMSubset(t *testing.T) {
	e := buildEnv(t, 44, 30, 30, 50, 12, 256)
	sub, err := e.c2.Subset([]uint32{2, 9, 14, 15, 28})
	if err != nil {
		t.Fatal(err)
	}
	in := Inputs{Outer: sub, Inner: e.c1, InnerInv: e.inv1, OuterInv: e.inv2}
	opts := Options{Lambda: 3, MemoryPages: 500}
	serial, _, err := JoinVVM(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := JoinVVMParallel(in, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResults(serial, par); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMissingInputs(t *testing.T) {
	e := buildEnv(t, 45, 5, 5, 20, 8, 256)
	if _, _, err := JoinHHNLParallel(Inputs{Outer: e.c2}, Options{}, 2); !errors.Is(err, ErrMissingInput) {
		t.Errorf("HHNL err = %v", err)
	}
	if _, _, err := JoinVVMParallel(Inputs{Outer: e.c2, Inner: e.c1}, Options{}, 2); !errors.Is(err, ErrMissingInput) {
		t.Errorf("VVM err = %v", err)
	}
}

func TestParallelPropagatesFaults(t *testing.T) {
	e := buildEnv(t, 46, 20, 20, 40, 10, 128)
	e.disk.InjectFaults(iosim.FaultPlan{FailAfterReads: 8, Repeat: true})
	if _, _, err := JoinHHNLParallel(e.inputs(), Options{Lambda: 3, MemoryPages: 100}, 3); !errors.Is(err, iosim.ErrInjected) {
		t.Errorf("parallel HHNL err = %v, want ErrInjected", err)
	}
	e.disk.InjectFaults(iosim.FaultPlan{})
	e.disk.InjectFaults(iosim.FaultPlan{FailFile: "c2.inv", FailAfterReads: 1, Repeat: true})
	if _, _, err := JoinVVMParallel(e.inputs(), Options{Lambda: 3, MemoryPages: 100}, 3); !errors.Is(err, iosim.ErrInjected) {
		t.Errorf("parallel VVM err = %v, want ErrInjected", err)
	}
}

func TestResolveWorkers(t *testing.T) {
	if resolveWorkers(0) < 1 {
		t.Error("resolveWorkers(0) < 1")
	}
	if resolveWorkers(-3) < 1 {
		t.Error("resolveWorkers(-3) < 1")
	}
	if resolveWorkers(5) != 5 {
		t.Error("resolveWorkers(5) != 5")
	}
}

// Property: parallel and serial results agree for random corpora, worker
// counts and memory budgets.
func TestQuickParallelEqualsSerial(t *testing.T) {
	check := func(seed int64, workerSeed uint8) bool {
		r := rand.New(rand.NewSource(seed))
		workers := int(workerSeed%6) + 1
		d := iosim.NewDisk(iosim.WithPageSize(128))
		c1 := buildColl(t, d, "c1", randomDocs(r, r.Intn(20)+1, 40, 10))
		c2 := buildColl(t, d, "c2", randomDocs(r, r.Intn(20)+1, 40, 10))
		inv1 := buildInv(t, d, c1, "c1")
		inv2 := buildInv(t, d, c2, "c2")
		in := Inputs{Outer: c2, Inner: c1, InnerInv: inv1, OuterInv: inv2}
		opts := Options{Lambda: r.Intn(5) + 1, MemoryPages: int64(r.Intn(100) + 8)}

		sh, _, err1 := JoinHHNL(in, opts)
		ph, _, err2 := JoinHHNLParallel(in, opts, workers)
		if err1 != nil || err2 != nil {
			return errors.Is(err1, ErrInsufficientMemory) && errors.Is(err2, ErrInsufficientMemory)
		}
		if sameResults(sh, ph) != nil {
			return false
		}
		sv, _, err3 := JoinVVM(in, opts)
		pv, _, err4 := JoinVVMParallel(in, opts, workers)
		if err3 != nil || err4 != nil {
			return errors.Is(err3, ErrInsufficientMemory) && errors.Is(err4, ErrInsufficientMemory)
		}
		return sameResults(sv, pv) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The one-worker path of every executor is the serial algorithm: reuse
// arenas, no goroutines, no per-document allocation. Growing the inner
// collection fourfold under a fixed outer side must therefore leave the
// allocation count flat — a fold that routed workers = 1 through the
// fan-out path, which clones every scanned document, would grow it by
// the number of inner documents.
func TestSerialJoinAllocsFlatInInnerSize(t *testing.T) {
	build := func(n1 int) Inputs {
		d := iosim.NewDisk(iosim.WithPageSize(256))
		c1 := buildColl(t, d, "c1", randomDocs(rand.New(rand.NewSource(71)), n1, 300, 20))
		c2 := buildColl(t, d, "c2", randomDocs(rand.New(rand.NewSource(72)), 40, 300, 20))
		return Inputs{Outer: c2, Inner: c1, InnerInv: buildInv(t, d, c1, "c1"), OuterInv: buildInv(t, d, c2, "c2")}
	}
	small, large := build(200), build(800)
	opts := Options{Lambda: 10, MemoryPages: 2000}
	for _, alg := range []Algorithm{HHNL, HVNL, VVM} {
		allocs := func(in Inputs) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, _, err := Join(alg, in, opts); err != nil {
					t.Fatal(err)
				}
			})
		}
		a200, a800 := allocs(small), allocs(large)
		t.Logf("%v: %.0f allocs at 200 inner documents, %.0f at 800", alg, a200, a800)
		if a800-a200 > 16 {
			t.Errorf("%v: allocations grew from %.0f to %.0f with the inner collection", alg, a200, a800)
		}
	}
}

package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"textjoin/internal/iosim"
	"textjoin/internal/telemetry"
)

// Every join algorithm must propagate storage errors instead of masking
// them or returning partial results.
func TestJoinsPropagateStorageFaults(t *testing.T) {
	for _, alg := range []Algorithm{HHNL, HVNL, VVM} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			e := buildEnv(t, 31, 20, 20, 40, 10, 128)
			// Fail the 10th read of any file once the join starts.
			e.disk.InjectFaults(iosim.FaultPlan{FailAfterReads: 10, Repeat: true})
			res, _, err := Join(alg, e.inputs(), Options{Lambda: 3, MemoryPages: 100})
			if !errors.Is(err, iosim.ErrInjected) {
				t.Fatalf("err = %v, want ErrInjected", err)
			}
			if res != nil {
				t.Errorf("partial results returned alongside error")
			}
		})
	}
}

func TestBackwardHHNLPropagatesFaults(t *testing.T) {
	e := buildEnv(t, 32, 20, 20, 40, 10, 128)
	e.disk.InjectFaults(iosim.FaultPlan{FailAfterReads: 5, Repeat: true})
	_, _, err := JoinHHNL(e.inputs(), Options{Lambda: 3, MemoryPages: 100, Backward: true})
	if !errors.Is(err, iosim.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

func TestHVNLPropagatesBTreeFaults(t *testing.T) {
	e := buildEnv(t, 33, 20, 20, 40, 10, 128)
	// Fail reads of the B+tree file specifically: LoadIndex must fail.
	e.disk.InjectFaults(iosim.FaultPlan{FailFile: "c1.bt", Repeat: true})
	_, _, err := JoinHVNL(e.inputs(), Options{Lambda: 3, MemoryPages: 100})
	if !errors.Is(err, iosim.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

func TestVVMPropagatesSecondFileFaults(t *testing.T) {
	e := buildEnv(t, 34, 20, 20, 40, 10, 128)
	e.disk.InjectFaults(iosim.FaultPlan{FailFile: "c2.inv", FailAfterReads: 1, Repeat: true})
	_, _, err := JoinVVM(e.inputs(), Options{Lambda: 3, MemoryPages: 100})
	if !errors.Is(err, iosim.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// want or the deadline passes, absorbing scheduler lag without sleeps of
// fixed length.
func waitGoroutines(tb testing.TB, want int) {
	tb.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > want {
		tb.Errorf("goroutine leak: %d running, want <= %d", n, want)
	}
}

// The parallel joins must propagate storage faults exactly like their
// serial counterparts: a clean wrapped error, no partial results, no
// leaked worker goroutines — and an attached collector must count the
// storage-level fault.
func TestParallelJoinsPropagateStorageFaults(t *testing.T) {
	variants := []struct {
		name string
		run  func(Inputs, Options, int) ([]Result, *Stats, error)
	}{
		{"hhnl", JoinHHNLParallel},
		{"hvnl", JoinHVNLParallel},
		{"vvm", JoinVVMParallel},
	}
	for _, v := range variants {
		for _, workers := range []int{2, 7} {
			v, workers := v, workers
			t.Run(fmt.Sprintf("%s/w%d", v.name, workers), func(t *testing.T) {
				before := runtime.NumGoroutine()
				e := buildEnv(t, 36, 20, 20, 40, 10, 128)
				tel := telemetry.New()
				e.disk.SetCollector(tel)
				e.disk.InjectFaults(iosim.FaultPlan{FailAfterReads: 5, Repeat: true})
				res, _, err := v.run(e.inputs(), Options{Lambda: 3, MemoryPages: 100, Telemetry: tel}, workers)
				if !errors.Is(err, iosim.ErrInjected) {
					t.Fatalf("err = %v, want ErrInjected", err)
				}
				if res != nil {
					t.Error("partial results returned alongside error")
				}
				var faults int64
				for _, c := range tel.Snapshot().Counters {
					if strings.HasPrefix(c.Name, "io.file.") && strings.HasSuffix(c.Name, ".faults") {
						faults += c.Value
					}
				}
				if faults == 0 {
					t.Error("no io.file.<name>.faults counter in the telemetry snapshot")
				}
				waitGoroutines(t, before)
			})
		}
	}
}

// A fault confined to the B+tree file must stop the parallel HVNL before
// any worker spawns, and still leak nothing.
func TestParallelHVNLPropagatesBTreeFaults(t *testing.T) {
	before := runtime.NumGoroutine()
	e := buildEnv(t, 37, 20, 20, 40, 10, 128)
	e.disk.InjectFaults(iosim.FaultPlan{FailFile: "c1.bt", Repeat: true})
	_, _, err := JoinHVNLParallel(e.inputs(), Options{Lambda: 3, MemoryPages: 100}, 4)
	if !errors.Is(err, iosim.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	waitGoroutines(t, before)
}

// A fault that fires during one run must not poison a later run after the
// plan is disarmed (no hidden state in the algorithms).
func TestJoinRecoversAfterDisarm(t *testing.T) {
	e := buildEnv(t, 35, 15, 15, 30, 8, 128)
	e.disk.InjectFaults(iosim.FaultPlan{FailAfterReads: 3, Repeat: true})
	if _, _, err := JoinHHNL(e.inputs(), Options{Lambda: 3, MemoryPages: 100}); err == nil {
		t.Fatal("expected injected failure")
	}
	e.disk.InjectFaults(iosim.FaultPlan{})
	res, _, err := JoinHHNL(e.inputs(), Options{Lambda: 3, MemoryPages: 100})
	if err != nil {
		t.Fatalf("after disarm: %v", err)
	}
	want := reference(t, e.c2, e.c1, 3, rawScorer(t))
	if err := sameResults(res, want); err != nil {
		t.Fatal(err)
	}
}

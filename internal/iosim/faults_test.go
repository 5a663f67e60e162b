package iosim

import (
	"errors"
	"testing"

	"textjoin/internal/telemetry"
)

func faultDisk(t *testing.T) (*Disk, *File, *File) {
	t.Helper()
	d := NewDisk(WithPageSize(16))
	a, err := d.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Create("b")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		a.AppendPage(nil)
		b.AppendPage(nil)
	}
	return d, a, b
}

func TestFaultAfterReads(t *testing.T) {
	d, a, _ := faultDisk(t)
	d.InjectFaults(FaultPlan{FailAfterReads: 2})
	if _, err := a.ReadPage(0); err != nil {
		t.Fatalf("read 1: %v", err)
	}
	if _, err := a.ReadPage(1); err != nil {
		t.Fatalf("read 2: %v", err)
	}
	if _, err := a.ReadPage(2); !errors.Is(err, ErrInjected) {
		t.Fatalf("read 3 err = %v, want ErrInjected", err)
	}
	// One-shot by default: the next read succeeds.
	if _, err := a.ReadPage(3); err != nil {
		t.Fatalf("read after fault: %v", err)
	}
}

func TestFaultRepeat(t *testing.T) {
	d, a, _ := faultDisk(t)
	d.InjectFaults(FaultPlan{FailAfterReads: 1, Repeat: true})
	a.ReadPage(0)
	for i := 0; i < 3; i++ {
		if _, err := a.ReadPage(1); !errors.Is(err, ErrInjected) {
			t.Fatalf("repeat read %d err = %v", i, err)
		}
	}
}

func TestFaultFileScoped(t *testing.T) {
	d, a, b := faultDisk(t)
	d.InjectFaults(FaultPlan{FailAfterReads: 0, FailFile: "b", Repeat: true})
	if _, err := a.ReadPage(0); err != nil {
		t.Fatalf("a unaffected: %v", err)
	}
	if _, err := b.ReadPage(0); !errors.Is(err, ErrInjected) {
		t.Fatalf("b err = %v, want ErrInjected", err)
	}
}

func TestFaultDisarm(t *testing.T) {
	d, a, _ := faultDisk(t)
	d.InjectFaults(FaultPlan{FailAfterReads: 0, Repeat: true})
	if _, err := a.ReadPage(0); !errors.Is(err, ErrInjected) {
		t.Fatal("fault not armed")
	}
	d.InjectFaults(FaultPlan{})
	if _, err := a.ReadPage(0); err != nil {
		t.Fatalf("after disarm: %v", err)
	}
}

func TestFaultDoesNotCountAsRead(t *testing.T) {
	d, a, _ := faultDisk(t)
	d.InjectFaults(FaultPlan{FailAfterReads: 0, Repeat: true})
	a.ReadPage(0)
	if got := d.Stats().Reads(); got != 0 {
		t.Errorf("failed read counted in stats: %d", got)
	}
}

func TestFaultThroughReadAt(t *testing.T) {
	d, a, _ := faultDisk(t)
	d.InjectFaults(FaultPlan{FailAfterReads: 1})
	if _, err := a.ReadAt(0, 32); !errors.Is(err, ErrInjected) {
		t.Fatalf("ReadAt err = %v, want ErrInjected", err)
	}
}

// TestFaultCounted: an attached collector counts each injected fault
// against the file it hit, and only that file.
func TestFaultCounted(t *testing.T) {
	d, a, b := faultDisk(t)
	tel := telemetry.New()
	d.SetCollector(tel)
	d.InjectFaults(FaultPlan{FailAfterReads: 0, FailFile: "b", Repeat: true})
	a.ReadPage(0)
	b.ReadPage(0)
	b.ReadPage(0)
	if got := tel.Counter("io.file.b.faults").Value(); got != 2 {
		t.Errorf("io.file.b.faults = %d, want 2", got)
	}
	if got := tel.Counter("io.file.a.faults").Value(); got != 0 {
		t.Errorf("io.file.a.faults = %d, want 0", got)
	}
}

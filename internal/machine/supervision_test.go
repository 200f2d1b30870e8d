package machine_test

// Tests for the machine-level supervision plumbing: the out-of-band stop
// flag (RequestStop/ClearStop), the cross-goroutine cycle gauge, and the
// concurrent-Close contract — Close racing an in-flight Run must stop
// the run cleanly, never deadlock, never panic, and stay idempotent
// (the msimd session-teardown ordering). See internal/guard for the
// supervisor built on these.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/rt"
)

// spin loads a never-halting loop on node 0.
func spin(t *testing.T, m *machine.Machine) {
	t.Helper()
	loadUser(t, m, 0, 0, 0, `
spin:
    add i1, i1, #1
    br spin
`)
}

// TestRequestStopEndsRun: the stop flag ends a run at a cycle boundary
// with ErrStopped; ClearStop makes the machine runnable again.
func TestRequestStopEndsRun(t *testing.T) {
	m, _ := newMachine(t, 1, rt.Options{})
	defer m.Close()
	spin(t, m)

	done := make(chan error, 1)
	go func() {
		_, err := m.Run(1 << 40)
		done <- err
	}()
	// Wait until the run demonstrably advances, then stop it.
	for m.CycleGauge() == 0 {
		time.Sleep(time.Millisecond)
	}
	m.RequestStop()
	select {
	case err := <-done:
		if !errors.Is(err, machine.ErrStopped) {
			t.Fatalf("want ErrStopped, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run ignored the stop request")
	}
	if m.Cycle <= 0 {
		t.Fatal("stopped before any progress")
	}
	// Flag is sticky until cleared: a fresh Run must refuse immediately.
	at := m.Cycle
	if _, err := m.Run(1000); !errors.Is(err, machine.ErrStopped) || m.Cycle != at {
		t.Fatalf("raised flag did not stop a fresh run (err=%v, cycle %d->%d)", err, at, m.Cycle)
	}
	m.ClearStop()
	if _, err := m.Run(100); !errors.Is(err, machine.ErrCycleLimit) {
		t.Fatalf("machine not runnable after ClearStop: %v", err)
	}
}

// TestCloseDuringRun: Close called concurrently with an in-flight Run
// stops the run, waits for it, and completes — no deadlock, no panic, no
// race. Afterwards the machine is closed and further Closes are no-ops.
// The "parallel" row ran the deleted worker pool; it keeps its name and
// repeats the "serial" row.
func TestCloseDuringRun(t *testing.T) {
	for _, name := range []string{"serial", "parallel"} {
		t.Run(name, func(t *testing.T) {
			m := machine.New(machine.DefaultConfig())
			if _, err := rt.Install(m, rt.Options{}); err != nil {
				t.Fatal(err)
			}
			if err := m.MapNodeRange(0, 4, 0); err != nil {
				t.Fatal(err)
			}
			spin(t, m)

			runErr := make(chan error, 1)
			go func() {
				_, err := m.Run(1 << 40)
				runErr <- err
			}()
			for m.CycleGauge() == 0 {
				time.Sleep(time.Millisecond)
			}

			closed := make(chan struct{})
			go func() {
				m.Close()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(10 * time.Second):
				t.Fatal("Close deadlocked against the in-flight Run")
			}
			if err := <-runErr; !errors.Is(err, machine.ErrStopped) {
				t.Fatalf("in-flight run: want ErrStopped, got %v", err)
			}
			m.Close() // idempotent
		})
	}
}

// TestConcurrentCloses: many simultaneous Closes (with no run in flight)
// are safe.
func TestConcurrentCloses(t *testing.T) {
	m := machine.New(machine.DefaultConfig())
	if _, err := m.Run(50); err != nil && !errors.Is(err, machine.ErrCycleLimit) {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Close()
		}()
	}
	wg.Wait()
}

// TestCloseThenRun: the historical contract — Run after Close — must
// still hold, and the transient stop Close raises
// must not leak into later runs.
func TestCloseThenRun(t *testing.T) {
	m, _ := newMachine(t, 1, rt.Options{})
	m.Close()
	loadUser(t, m, 0, 0, 0, `
    movi i1, #41
    add i1, i1, #1
    halt
`)
	if _, err := m.Run(1000); err != nil {
		t.Fatalf("run after Close: %v", err)
	}
	if got := reg(m, 0, 0, 0, 1); got != 42 {
		t.Fatalf("i1 = %d, want 42", got)
	}
}

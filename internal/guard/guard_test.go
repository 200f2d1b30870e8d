package guard_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/guard"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/rt"
)

// newM builds an n-node x-axis machine with the runtime installed, node i
// homing virtual words [i*4096, (i+1)*4096), under the requested engine.
func newM(t *testing.T, nodes, workers int) *machine.Machine {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Dims = noc.Coord{X: nodes, Y: 1, Z: 1}
	cfg.Workers = workers
	m := machine.New(cfg)
	t.Cleanup(m.Close)
	if _, err := rt.Install(m, rt.Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if err := m.MapNodeRange(uint64(i)*4096, 4, i); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func load(t *testing.T, m *machine.Machine, node int, src string) {
	t.Helper()
	p, err := asm.Assemble("user", src)
	if err != nil {
		t.Fatal(err)
	}
	m.Chip(node).LoadProgram(0, 0, p, true)
}

// countSrc runs a counting loop to n and halts; the loop keeps the chip
// busy every cycle, so fault probes fire at every cycle until the halt.
func countSrc(n int) string {
	return fmt.Sprintf(`
    movi i1, #0
    movi i2, #%d
loop:
    add i1, i1, #1
    lt i3, i1, i2
    brt i3, loop
    halt
`, n)
}

// spinSrc never halts — the watchdog-test workload.
const spinSrc = `
spin:
    add i1, i1, #1
    br spin
`

func finalCount(m *machine.Machine, node int) uint64 {
	return m.Chip(node).Thread(0, 0).Ints.Get(1).Bits
}

// injected is a panic value carrying its own crash site, the shape
// internal/faultinject raises.
type injected struct {
	node  int
	cycle int64
}

func (p injected) CrashSite() (int, int64) { return p.node, p.cycle }
func (p injected) String() string          { return fmt.Sprintf("injected fault at node %d", p.node) }

// TestSupervisedBitIdentical: supervision with watchdogs armed must not
// perturb the simulation — same cycles, same results as a bare Run.
func TestSupervisedBitIdentical(t *testing.T) {
	bare := newM(t, 2, 0)
	load(t, bare, 0, countSrc(300))
	load(t, bare, 1, countSrc(150))
	wantCycles, err := bare.Run(100000)
	if err != nil {
		t.Fatal(err)
	}
	want0, want1 := finalCount(bare, 0), finalCount(bare, 1)

	m := newM(t, 2, 0)
	load(t, m, 0, countSrc(300))
	load(t, m, 1, countSrc(150))
	s := guard.New(m, guard.Options{Timeout: 30 * time.Second, CycleBudget: 1 << 40})
	gotCycles, err := s.Run(100000)
	if err != nil {
		t.Fatal(err)
	}
	if gotCycles != wantCycles || finalCount(m, 0) != want0 || finalCount(m, 1) != want1 {
		t.Fatalf("supervised run diverged: cycles %d vs %d, counts %d/%d vs %d/%d",
			gotCycles, wantCycles, finalCount(m, 0), finalCount(m, 1), want0, want1)
	}
}

// TestPanicContainedSerial: a probe panic under the serial engine becomes
// a *CrashError with the panic value and site preserved; no panic escapes.
func TestPanicContainedSerial(t *testing.T) {
	m := newM(t, 1, 0)
	load(t, m, 0, spinSrc)
	m.SetFaultProbe(func(node int, cycle int64) {
		if cycle == 100 {
			panic(injected{node: node, cycle: cycle})
		}
	})
	s := guard.New(m, guard.Options{})
	_, err := s.Run(1 << 40)
	var ce *guard.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CrashError, got %v", err)
	}
	if ce.Node != 0 || ce.Cycle != 100 {
		t.Fatalf("crash site = node %d cycle %d, want node 0 cycle 100", ce.Node, ce.Cycle)
	}
	if _, ok := ce.Value.(injected); !ok {
		t.Fatalf("panic value not preserved: %#v", ce.Value)
	}
	if len(ce.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	if ce.Diagnostic == "" || !strings.Contains(ce.Diagnostic, "node 0") {
		t.Fatalf("diagnostic missing per-node state:\n%s", ce.Diagnostic)
	}
	if strings.Contains(ce.Error(), "goroutine") {
		t.Fatalf("Error() leaks a stack trace: %q", ce.Error())
	}
}

// TestPanicContainedParallel: a worker-goroutine panic under the parallel
// engine is recovered on the worker, re-raised after the gather barrier,
// and surfaces as the same *CrashError shape — with the worker-side stack
// and the original panic value unwrapped from machine.WorkerPanic.
func TestPanicContainedParallel(t *testing.T) {
	m := newM(t, 6, 3)
	for i := 0; i < 6; i++ {
		load(t, m, i, spinSrc)
	}
	m.SetFaultProbe(func(node int, cycle int64) {
		if node == 4 && cycle == 150 {
			panic(injected{node: node, cycle: cycle})
		}
	})
	s := guard.New(m, guard.Options{})
	_, err := s.Run(1 << 40)
	var ce *guard.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CrashError, got %v", err)
	}
	if ce.Node != 4 || ce.Cycle != 150 {
		t.Fatalf("crash site = node %d cycle %d, want node 4 cycle 150", ce.Node, ce.Cycle)
	}
	if _, ok := ce.Value.(injected); !ok {
		t.Fatalf("panic value not unwrapped from WorkerPanic: %#v", ce.Value)
	}
	if !bytes.Contains(ce.Stack, []byte("runShard")) {
		t.Fatal("stack is not the worker-side stack")
	}
	// The pool is poisoned: further runs re-raise as contained errors, not
	// process-killing panics.
	if _, err := s.Run(10); err == nil {
		t.Fatal("second run on a crashed pool succeeded")
	}
}

// TestWatchdogTimeout: a livelocked run is stopped at a cycle boundary,
// classified StallTimeout, and leaves a reusable, consistent machine.
func TestWatchdogTimeout(t *testing.T) {
	m := newM(t, 1, 0)
	load(t, m, 0, spinSrc)
	s := guard.New(m, guard.Options{Timeout: 50 * time.Millisecond})
	_, err := s.Run(1 << 40)
	var se *guard.StallError
	if !errors.As(err, &se) {
		t.Fatalf("want *StallError, got %v", err)
	}
	if se.Kind != guard.StallTimeout {
		t.Fatalf("kind = %v, want timeout", se.Kind)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("timeout does not unwrap to context.DeadlineExceeded")
	}
	if se.Cycle <= 0 || se.Diagnostic == "" {
		t.Fatalf("missing forensics: cycle=%d diag=%q", se.Cycle, se.Diagnostic)
	}
	if guard.IsHang(err) {
		t.Fatal("clean timeout misclassified as hang")
	}
	// The machine is between cycles and reusable after the stop.
	if _, err := m.Run(10); !errors.Is(err, machine.ErrCycleLimit) {
		t.Fatalf("machine not reusable after timeout: %v", err)
	}
}

// TestContextCancel: a canceled caller context stops the run like a
// deadline does.
func TestContextCancel(t *testing.T) {
	m := newM(t, 1, 0)
	load(t, m, 0, spinSrc)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	s := guard.New(m, guard.Options{Ctx: ctx})
	_, err := s.Run(1 << 40)
	var se *guard.StallError
	if !errors.As(err, &se) || se.Kind != guard.StallTimeout {
		t.Fatalf("want StallTimeout from cancellation, got %v", err)
	}
}

// TestCycleBudgetDeterministic: budget exhaustion is a property of the
// simulation, not the host or the engine — the naive loop, the event
// engine and the worker pool all stop a runaway mesh at exactly the
// budgeted cycle.
func TestCycleBudgetDeterministic(t *testing.T) {
	const budget = 3000
	for _, e := range []struct {
		name    string
		naive   bool
		workers int
	}{{"naive", true, 0}, {"event", false, 0}, {"parallel3", false, 3}} {
		t.Run(e.name, func(t *testing.T) {
			m := newM(t, 6, e.workers)
			m.Naive = e.naive
			for n := 0; n < 6; n++ {
				load(t, m, n, spinSrc)
			}
			_, err := guard.New(m, guard.Options{CycleBudget: budget}).Run(1 << 40)
			var se *guard.StallError
			if !errors.As(err, &se) {
				t.Fatalf("want *StallError, got %v", err)
			}
			if se.Kind != guard.StallBudget || se.Budget != budget {
				t.Fatalf("kind=%v budget=%d, want budget kind %d", se.Kind, se.Budget, budget)
			}
			if errors.Is(err, context.DeadlineExceeded) {
				t.Fatal("budget exhaustion must not look like a wall-clock deadline")
			}
			if se.Cycle != budget || m.Cycle != budget {
				t.Fatalf("cut off at cycle %d (machine at %d), want exactly %d", se.Cycle, m.Cycle, budget)
			}
		})
	}
}

// TestBudgetSpansPhases: the budget is per Do, not per RunPhase — legs
// share it.
func TestBudgetSpansPhases(t *testing.T) {
	m := newM(t, 1, 0)
	load(t, m, 0, spinSrc)
	s := guard.New(m, guard.Options{CycleBudget: 1000})
	err := s.Do(func() error {
		if _, err := s.RunPhase(600); err != nil && !errors.Is(err, machine.ErrCycleLimit) {
			return err
		}
		_, err := s.RunPhase(600) // only 400 of budget left
		return err
	})
	var se *guard.StallError
	if !errors.As(err, &se) || se.Kind != guard.StallBudget {
		t.Fatalf("want StallBudget across phases, got %v", err)
	}
	if got := m.Cycle; got != 1000 {
		t.Fatalf("stopped at cycle %d, want exactly the 1000-cycle budget", got)
	}
}

// TestHangAbandon: a run that never reaches a sync point is declared
// wedged after the grace period; the machine must then be abandoned.
func TestHangAbandon(t *testing.T) {
	m := newM(t, 1, 0)
	release := make(chan struct{})
	s := guard.New(m, guard.Options{Timeout: 10 * time.Millisecond, Grace: 30 * time.Millisecond})
	err := s.Do(func() error {
		<-release
		return nil
	})
	close(release)
	if !guard.IsHang(err) {
		t.Fatalf("want hang, got %v", err)
	}
	var se *guard.StallError
	errors.As(err, &se)
	if se.DumpPath != "" {
		t.Fatal("hang must not attempt a snapshot: the run still owns the machine")
	}
}

// TestCrashDumpRestoreResume: the crash dump written on an injected panic
// is a loadable snapshot, and (serial engine, probe firing before the
// step) resuming it completes with exactly the uncrashed result.
func TestCrashDumpRestoreResume(t *testing.T) {
	bare := newM(t, 1, 0)
	load(t, bare, 0, countSrc(200))
	if _, err := bare.Run(100000); err != nil {
		t.Fatal(err)
	}
	bareEnd := bare.Cycle
	want := finalCount(bare, 0)

	dump := filepath.Join(t.TempDir(), "crash.msnap")
	m := newM(t, 1, 0)
	load(t, m, 0, countSrc(200))
	m.SetFaultProbe(func(node int, cycle int64) {
		if cycle == 50 {
			panic(injected{node: node, cycle: cycle})
		}
	})
	s := guard.New(m, guard.Options{DumpPath: dump})
	_, err := s.Run(100000)
	var ce *guard.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CrashError, got %v", err)
	}
	if ce.DumpPath != dump {
		t.Fatalf("dump path = %q, want %q", ce.DumpPath, dump)
	}

	f, err := os.Open(dump)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := newM(t, 1, 0)
	if err := r.Restore(f); err != nil {
		t.Fatalf("crash dump does not restore: %v", err)
	}
	if r.Cycle != 50 {
		t.Fatalf("restored at cycle %d, want the crash cycle 50", r.Cycle)
	}
	if _, err := r.Run(100000); err != nil {
		t.Fatal(err)
	}
	if got := finalCount(r, 0); got != want || r.Cycle != bareEnd {
		t.Fatalf("resumed run diverged: count=%d want %d, end cycle=%d want %d", got, want, r.Cycle, bareEnd)
	}
}

// TestWatchdogStopSaveRestoreResume: a machine stopped mid-run by the
// wall-clock watchdog is at a clean cycle boundary — machine.Save right
// after the supervised Run returns must produce a snapshot from which a
// fresh machine resumes bit-identically to the stopped original. This is
// the foundation the serve checkpoint/retry path is built on, so it is
// pinned here for both engines: the stop lands at an unpredictable cycle
// (it races the wall clock), yet the saved state must be exact.
func TestWatchdogStopSaveRestoreResume(t *testing.T) {
	for _, workers := range []int{0, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m := newM(t, 3, workers)
			for i := 0; i < 3; i++ {
				load(t, m, i, spinSrc)
			}
			s := guard.New(m, guard.Options{Timeout: 50 * time.Millisecond})
			_, err := s.Run(1 << 40)
			var se *guard.StallError
			if !errors.As(err, &se) || se.Kind != guard.StallTimeout {
				t.Fatalf("want StallTimeout, got %v", err)
			}

			// Save the stopped machine and restore into a fresh one.
			var snap bytes.Buffer
			if err := m.Save(&snap); err != nil {
				t.Fatalf("Save after watchdog stop: %v", err)
			}
			stopCycle := m.Cycle
			r := newM(t, 3, workers)
			if err := r.Restore(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatalf("Restore of watchdog-stop snapshot: %v", err)
			}
			if r.Cycle != stopCycle {
				t.Fatalf("restored at cycle %d, want the stop cycle %d", r.Cycle, stopCycle)
			}

			// Resume BOTH machines the same fixed distance; their full final
			// snapshots must be byte-identical — the restored machine is the
			// stopped one, not an approximation of it.
			if _, err := m.Run(5000); !errors.Is(err, machine.ErrCycleLimit) {
				t.Fatalf("original not resumable after stop: %v", err)
			}
			if _, err := r.Run(5000); !errors.Is(err, machine.ErrCycleLimit) {
				t.Fatalf("restored machine not resumable: %v", err)
			}
			var a, b bytes.Buffer
			if err := m.Save(&a); err != nil {
				t.Fatal(err)
			}
			if err := r.Save(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("resumed states diverge: %d vs %d byte snapshots (stop cycle %d)",
					a.Len(), b.Len(), stopCycle)
			}
			if finalCount(m, 0) != finalCount(r, 0) {
				t.Fatalf("counts diverge: %d vs %d", finalCount(m, 0), finalCount(r, 0))
			}
		})
	}
}

// TestDumpFailureDoesNotMask: an unwritable dump path degrades to a note
// in the diagnostic; the primary error class is unchanged.
func TestDumpFailureDoesNotMask(t *testing.T) {
	m := newM(t, 1, 0)
	load(t, m, 0, spinSrc)
	m.SetFaultProbe(func(node int, cycle int64) {
		if cycle == 10 {
			panic("boom")
		}
	})
	s := guard.New(m, guard.Options{DumpPath: filepath.Join(t.TempDir(), "no", "such", "dir", "d.msnap")})
	_, err := s.Run(1 << 40)
	var ce *guard.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("dump failure changed the error class: %v", err)
	}
	if ce.DumpPath != "" {
		t.Fatal("DumpPath set although the write failed")
	}
	if !strings.Contains(ce.Diagnostic, "crash dump failed") {
		t.Fatal("dump failure not recorded in the diagnostic")
	}
}

// TestErrorsPassThrough: ordinary errors from the supervised function are
// returned verbatim — supervision adds nothing to the success/plain-error
// paths.
func TestErrorsPassThrough(t *testing.T) {
	m := newM(t, 1, 0)
	s := guard.New(m, guard.Options{Timeout: time.Second})
	sentinel := errors.New("scenario failed")
	if err := s.Do(func() error { return sentinel }); err != sentinel {
		t.Fatalf("got %v, want the sentinel verbatim", err)
	}
	if err := s.Do(func() error { return nil }); err != nil {
		t.Fatalf("got %v, want nil", err)
	}
}

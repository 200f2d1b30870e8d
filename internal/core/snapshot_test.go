package core

// Simulator-facade checkpoint tests: a restored simulator matches a
// never-snapshotted one, forks evolve independently, and the recorder
// keeps tracing across a restore. The engine-matrix coverage of snapshot
// round-trips lives in internal/machine (TestSnapshotRoundTripMatrix);
// Table1 — whose write cells warm-start from forks of the staged
// machines — is additionally pinned across engines by
// TestDeterminismEngines.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/faultinject"
)

// simResult runs the simulator's loaded program and fingerprints it.
func simResult(t *testing.T, s *Sim) string {
	t.Helper()
	ran, err := s.Run(200000)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	return fmt.Sprintf("ran=%d i5=%d insts=%d msgs=%d ltlb=%d",
		ran, s.Reg(0, 0, 0, 5), st.Instructions, st.MsgsInjected, st.LTLBFaults)
}

const snapTestProg = `
    movi i1, #4096          ; node 1's home range: remote traffic
    movi i2, #0
    movi i3, #10
loop:
    st [i1], i2
    ld i4, [i1]
    add i5, i5, i4
    add i1, i1, #5
    add i2, i2, #1
    lt i6, i2, i3
    brt i6, loop
    halt
`

// TestRestoredBootMatchesFreshBoot: restoring a fresh boot's snapshot
// over another fresh boot must run a workload to the exact result of a
// never-snapshotted simulator (restore loses and invents nothing).
func TestRestoredBootMatchesFreshBoot(t *testing.T) {
	fresh, err := NewSim(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadASM(0, 0, 0, snapTestProg); err != nil {
		t.Fatal(err)
	}
	want := simResult(t, fresh)

	src, err := NewSim(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	warm, err := NewSim(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := warm.LoadASM(0, 0, 0, snapTestProg); err != nil {
		t.Fatal(err)
	}
	if got := simResult(t, warm); got != want {
		t.Errorf("restored boot diverged: %s vs fresh %s", got, want)
	}
}

// TestSimFork: a fork taken mid-run matches its parent's continuation,
// and mutating the fork does not leak into the parent.
func TestSimFork(t *testing.T) {
	s, err := NewSim(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadASM(0, 0, 0, snapTestProg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunUntil(func() bool { return false }, 300); err == nil {
		t.Fatal("RunUntil with a false predicate should time out")
	}
	f, err := s.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer f.M.Close()
	// Perturb the fork's accumulator: its result must change while the
	// parent's does not.
	g, err := s.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer g.M.Close()
	g.SetReg(0, 0, 0, 5, 100000)

	want := simResult(t, s)
	if got := simResult(t, f); got != want {
		t.Errorf("fork diverged from parent: %s vs %s", got, want)
	}
	if got := simResult(t, g); got == want {
		t.Errorf("perturbed fork still matched parent (%s) — forks are not independent", got)
	}
}

// TestSimRestoreKeepsRecording: what is environment rather than state
// survives the chips being replaced, by Restore and by AdoptShard alike.
// The recorder NewSim installed keeps receiving events; a fault probe
// armed before the new state arrives still fires after it; and it fires on
// node 1, which steps mid-run only because an arrival wake-up reached the
// engine through the wake hook of the chip that was installed.
func TestSimRestoreKeepsRecording(t *testing.T) {
	a, err := NewSim(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.LoadASM(0, 0, 0, snapTestProg); err != nil {
		t.Fatal(err)
	}
	var full, frame bytes.Buffer
	if err := a.Save(&full); err != nil {
		t.Fatal(err)
	}
	if err := a.M.EncodeShard(&frame, 0, 2); err != nil {
		t.Fatal(err)
	}
	// The cycles node 1 steps on in an undisturbed run; the probe goes on
	// one in the middle.
	var steps []int64
	a.M.SetFaultProbe(func(node int, cycle int64) {
		if node == 1 {
			steps = append(steps, cycle)
		}
	})
	if _, err := a.Run(200000); err != nil {
		t.Fatal(err)
	}
	at := steps[len(steps)/2]

	install := map[string]func(*Sim) error{
		"Restore": func(b *Sim) error { return b.Restore(&full) },
		"AdoptShard": func(b *Sim) error {
			_, err := b.M.AdoptShard(&frame, 0, 2)
			return err
		},
	}
	for name, put := range install {
		t.Run(name, func(t *testing.T) {
			b, err := NewSim(Options{Nodes: 2})
			if err != nil {
				t.Fatal(err)
			}
			b.M.SetFaultProbe(faultinject.PanicAt(1, at))
			if err := put(b); err != nil {
				t.Fatal(err)
			}
			defer func() {
				ip, ok := recover().(*faultinject.InjectedPanic)
				if !ok || ip.Node != 1 || ip.Cycle != at {
					t.Errorf("run ended with %v, want the probe armed before the install to fire at node 1, cycle %d", ip, at)
				}
				if len(b.Recorder.Events) == 0 {
					t.Error("no trace events recorded after the install")
				}
			}()
			_, err = b.Run(200000)
			t.Errorf("run finished (%v) without reaching the fault probe", err)
		})
	}
}

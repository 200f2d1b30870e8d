package serve

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
)

// TestCheckpointBytesPinned pins the msimdCk1 envelope of a suspended
// session — two slices into its second phase, machine snapshot included —
// byte for byte, as Drain would spool it.
func TestCheckpointBytesPinned(t *testing.T) {
	src := `workload "pin"
mesh 2
generate sp spinloop iters=300
load sp on node 0
run 100000
load sp on node 1
run 100000
`
	sc, err := core.ScenarioFromDSL("pin.wl", src)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sc.NewSim(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.M.Close()
	run := sc.NewRun(sim)
	sup := guard.New(sim.M, guard.Options{})
	slices := 0
	err = sup.Do(func() error {
		for len(run.Phases()) == 0 || slices < 2 {
			ran, err := run.Advance(sup, 256)
			if err != nil {
				return err
			}
			if ran && len(run.Phases()) > 0 {
				slices++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var snapshot bytes.Buffer
	if err := sim.M.Save(&snapshot); err != nil {
		t.Fatal(err)
	}
	step, phaseRan := run.Pos()
	path := ckptPath(t.TempDir(), "s000007")
	err = writeCheckpoint(path, &checkpoint{
		ID: "s000007", Name: "pin.wl", Source: src,
		WallNanos: int64(30 * time.Second), CycleBudget: 1 << 20, Retries: 1,
		NextStep: step, PhaseRan: phaseRan, Checks: run.Checks(), Phases: run.Phases(),
		Machine: snapshot.Bytes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "e0a2924d9b162189a0008271aa196f9a12072c0506a59a8616efac4adbd9f564"
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
		t.Errorf("checkpoint sha256 %s, want %s (step %d, phase cycles %d, phases %v)", got, want, step, phaseRan, run.Phases())
	}
}

package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
)

// pinnedCheckpoint spools the checkpoint of a suspended session — two
// 256-cycle slices into its second phase, machine snapshot included — as
// Drain would leave it, into dir, and returns the file's path.
func pinnedCheckpoint(tb testing.TB, dir string) string {
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
		tb.Fatal(err)
	}
	sim, err := sc.NewSim(core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	defer sim.M.Close()
	run := sc.NewRun(sim)
	sup := guard.New(sim.M, guard.Options{})
	slices := 0
	err = sup.Do(func() error {
		for len(run.Position().Phases) == 0 || slices < 2 {
			ran, err := run.Advance(sup, 256)
			if err != nil {
				return err
			}
			if ran && len(run.Position().Phases) > 0 {
				slices++
			}
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	var snapshot bytes.Buffer
	if err := sim.M.Save(&snapshot); err != nil {
		tb.Fatal(err)
	}
	path := ckptPath(dir, "s000007")
	err = writeCheckpoint(path, &checkpoint{
		ID: "s000007", Name: "pin.wl", Source: src,
		WallNanos: int64(30 * time.Second), CycleBudget: 1 << 20, Retries: 1,
		Pos: run.Position(), Machine: snapshot.Bytes(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestCheckpointBytesPinned pins the envelope of pinnedCheckpoint's
// suspended session byte for byte.
func TestCheckpointBytesPinned(t *testing.T) {
	b, err := os.ReadFile(pinnedCheckpoint(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	const want = "0c5f7d1475dc865e695b627a5efb576850d25bf3dea7f9b7f171484f606b3728"
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
		t.Errorf("checkpoint sha256 %s, want %s", got, want)
	}
}

// TestVersion1CheckpointRestartsFromScratch: a spooled checkpoint whose
// machine stream carries snapshot version 1 (the format that wrote whole
// SDRAM chunks) is refused by Restore, so the adopted session falls back
// to a fresh start: it finishes with the from-scratch digest and counts
// no restore.
func TestVersion1CheckpointRestartsFromScratch(t *testing.T) { oldCheckpointRestarts(t, 1) }

// TestVersion2CheckpointRestartsFromScratch: the same for snapshot
// version 2 (the format that wrote every register of every thread
// context and each thread's program in full).
func TestVersion2CheckpointRestartsFromScratch(t *testing.T) { oldCheckpointRestarts(t, 2) }

func oldCheckpointRestarts(t *testing.T, version uint64) {
	cfg := testConfig(t)
	path := pinnedCheckpoint(t, cfg.Spool)
	ck, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(ck.Machine[8:], version) // the word after the magic
	if err := writeCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	sc, err := core.ScenarioFromDSL(ck.Name, ck.Source)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sc.NewSim(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.M.Close()
	if err := sim.M.Restore(bytes.NewReader(ck.Machine)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", version)) {
		t.Fatalf("restoring the version-%d stream: %v, want the version refused", version, err)
	}

	want := digestOf(t, mustServer(t, testConfig(t)), ck.Name, ck.Source)
	sv := mustServer(t, cfg)
	if n := sv.Stats().Adopted; n != 1 {
		t.Fatalf("adopted %d sessions, want 1", n)
	}
	s, ok := sv.Get(ck.ID)
	if !ok {
		t.Fatalf("session %s not adopted", ck.ID)
	}
	got := waitDone(t, s)
	if got.State != StateDone {
		t.Fatalf("adopted session: %s (%s: %s)", got.State, got.FailureClass, got.Failure)
	}
	if got.Digest != want.Digest {
		t.Errorf("digest %s, want the from-scratch run's %s", got.Digest, want.Digest)
	}
	if n := sv.Stats().Restores; n != 0 {
		t.Errorf("stats restores %d, want 0 (a version-%d stream must not restore)", n, version)
	}
}

// FuzzCheckpoint: a spooled checkpoint is read back by a restarted server
// (adopt) and by every retry (runAttempt), so an arbitrary file must
// either fail to read with an error or yield a checkpoint whose position
// a run of its own scenario can Seek — returning an error, never
// panicking. The corpus is seeded with TestCheckpointBytesPinned's file,
// an admission checkpoint and damaged copies of the first.
func FuzzCheckpoint(f *testing.F) {
	pinned, err := os.ReadFile(pinnedCheckpoint(f, f.TempDir()))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pinned)
	admission := ckptPath(f.TempDir(), "s000001")
	if err := writeCheckpoint(admission, &checkpoint{ID: "s000001", Name: "x.wl", Source: "workload \"x\"\nmesh 1\n"}); err != nil {
		f.Fatal(err)
	}
	if b, err := os.ReadFile(admission); err == nil {
		f.Add(b)
	}
	f.Add(pinned[:len(pinned)/2])
	f.Add(pinned[:len(ckptMagic)+8])
	f.Add([]byte(ckptMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "s.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := readCheckpoint(path)
		if err != nil {
			return
		}
		sc, err := core.ScenarioFromDSL(ck.Name, ck.Source)
		if err != nil || sc.Plan.Dims[0]*sc.Plan.Dims[1]*sc.Plan.Dims[2] > 8 {
			return // unparsable (adopt quarantines it), or too big to boot per execution
		}
		sim, err := sc.NewSim(core.Options{})
		if err != nil {
			return
		}
		defer sim.M.Close()
		sc.NewRun(sim).Seek(ck.Pos)
	})
}

package repro_test

import (
	"bytes"
	"testing"
)

// TestForkAllocationPin: a Fork of the staged 32-node machine costs a few
// dozen allocations per chip, whatever its threads run. A cluster's six
// thread contexts, their twelve register files and their register words
// come from three allocations (cluster.New's carve), not thirty-three.
func TestForkAllocationPin(t *testing.T) {
	const bound = 1700
	s := stagedMesh(t)
	defer s.M.Close()
	n := testing.AllocsPerRun(10, func() {
		f, err := s.Fork()
		if err != nil {
			t.Fatal(err)
		}
		f.M.Close()
	})
	t.Logf("Fork of the staged 4x4x2 machine: %.0f allocations", n)
	if n > bound {
		t.Errorf("Fork of the staged 4x4x2 machine makes %.0f allocations, want <= %d", n, bound)
	}
}

// TestRestoreAllocationPin: a Restore of the staged 32-node machine reads
// its stream in one allocation the stream's size (io.Copy into a
// bytes.Buffer: one WriteTo from a *bytes.Reader) and decodes straight
// from it. A read that grows its buffer by doubling, as io.ReadAll does,
// costs more than the bound's headroom.
func TestRestoreAllocationPin(t *testing.T) {
	const bound = 2420
	s := stagedMesh(t)
	defer s.M.Close()
	var snapshot bytes.Buffer
	if err := s.Save(&snapshot); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(10, func() {
		if err := s.Restore(bytes.NewReader(snapshot.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Restore of the staged 4x4x2 machine: %.0f allocations", n)
	if n > bound {
		t.Errorf("Restore of the staged 4x4x2 machine makes %.0f allocations, want <= %d", n, bound)
	}
}

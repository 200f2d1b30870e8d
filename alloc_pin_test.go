package repro_test

import "testing"

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

package core_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"repro/internal/core"
	"repro/internal/wgen"
)

// TestSnapshotBytesPinned pins the Save stream, byte for byte, of the
// machines every checkpoint user starts from — the staged Table 1
// machines, forks of generated scenarios taken mid-phase — and one
// EncodeShard frame (the dist seed and pull), so a change to the codec or to any component's
// state walk that still round-trips but moves a byte is caught.
func TestSnapshotBytesPinned(t *testing.T) {
	sum := func(write func(h hash.Hash) error) string {
		t.Helper()
		h := sha256.New()
		if err := write(h); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	check := func(name, want string, write func(h hash.Hash) error) {
		t.Helper()
		if got := sum(write); got != want {
			t.Errorf("%s: sha256 %s, want %s", name, got, want)
		}
	}

	table1 := []string{
		"a8c356b159de21adda8ee220bc11f9c8bf81f8c56efa1d390ef44f693518888e",
		"0517966d0d7d69d6486d22e3f09dfac7d2716e1dced2a06dde61d71899a6d9f3",
		"61af172050cd0226971d58bf3e22a536853c5b8d3de9c7ba7e3cc3ad70ff9bb7",
		"7321f121ca1bd8a337015b3b3f2def7c663a68425d52208204c0f3dd3f9680bd",
		"14fdfd5b82532d55d5f5ff76107a2653485c3dc8d3cf967b753a06a6ff152b66",
		"e7c70b5ce2fec70d7f57daca7371e23144f67abe8060f0e43cbb553ff6b3ffa0",
	}
	for class := core.AccessClass(0); class < core.NumAccessClasses; class++ {
		s, err := core.NewSim(core.Options{Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		addr := uint64(16)
		if class > core.LocalLTLBMiss {
			addr = s.HomeBase(1) + 16
		}
		if err := core.StageAccess(s, class, addr); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("table1/%s", class), table1[class], func(h hash.Hash) error { return s.Save(h) })
		s.M.Close()
	}

	for _, c := range []struct {
		seed        uint64
		save, shard string
	}{
		{0,
			"803f3c6199186c9ee4879216b7679c4856fb9f43f074b6462b6797c1cef40d21",
			"36f91257a09770fac82f91f72841a88c37c3d5e8090fb43b256f2f546fa1f5dc"},
		{5,
			"0b031281d4aba17ac45066d144789eefb6654a20e201eabe516ae3a006dad840",
			"57c4696438cb852f6943c7e7670a6ba526b0a6a5a0c20086e5df9f5eef0029cf"},
		{8,
			"cc0f837041770250f07cc6729e8d9f28b0956eaf8e1fe6af1bc0ed2c1788cf9c",
			"0136e381cddfce1095086886cc9d7d0dc0d94eb41d12b7e9d2f1961fcace0c7f"},
	} {
		name, src := wgen.Source(c.seed)
		sc, err := core.ScenarioFromDSL(name+".wl", src)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Plan.Sweep != nil {
			sc = &core.Scenario{Name: sc.Name, Plan: sc.Plan.PointPlan(0)}
		}
		s, err := sc.NewSim(core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		advance(t, sc, s, sc.NewRun(s), 0)
		s.M.WakeAll()
		for i := 0; i < 30; i++ {
			s.M.Step()
		}
		f, err := s.Fork()
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("seed%d/fork", c.seed), c.save, func(h hash.Hash) error { return f.Save(h) })
		n := f.M.NumNodes()
		check(fmt.Sprintf("seed%d/shard", c.seed), c.shard, func(h hash.Hash) error { return f.M.EncodeShard(h, n/2, n) })
		f.M.Close()
		s.M.Close()
	}
}

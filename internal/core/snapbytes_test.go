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
		"6bde725c6062dacfd0738f840de3e07e74a8925ca6895c3e0225e9d16ce1db1c",
		"20aa246a6065042fd8bc85d77e8a6d31ca0b0bc7f8e895e0d311bd30a43ac5a9",
		"4193a72512231f10aa34cce5cbe077df94cc8dcc71239a37ce6ea81227e1a9dd",
		"4ec98ede623b9a304e5a5243369dee272d414c873b82dd128480ddc573c906a6",
		"8fbabf37311dfc060b81631701f14d5c47598d57c4f5218a07007b9cf2ae67cb",
		"20308e7fc3f179e6cd6349d803338c71dd2e867f40888d3ee884daa9be271978",
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
			"c6befebabba982b368e09789ac3ca92f6ab33d624aabeb8247a401b560923b99",
			"f791e7602e57602dd2462032dc94b98027733612209908a8f16b2bf23e1cb6c8"},
		{5,
			"7982a15e37e7cc7ee0ca66103ed3515129a5859840f37ace1d9a0a8c4bad3a6d",
			"0126744927a4bece522b79dbdf5fdf00e300782fbe59f4657c9bb14dba1db93f"},
		{8,
			"d4f99fbfcacaec9bf83b519a94b94beb46100e0d8372efea8eefe0eec55d3eba",
			"96cd6de7848d5a1aebf7547895763bd31a909ff3e5d7d771344ca57e3c6b2666"},
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

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
		"896482f6f112038d39bb3a1232841f1bbf80110ab380898cbe60514fdf953749",
		"7bbeccfee48e4f914110f637c761704cefc014369f079adb0bd2e39813279a31",
		"8a67b7602064febc567c8efea63ba4967645db1e2654d43c62045e05f5402906",
		"c53572866e8dcd0102b976100a1f54e638708f6f485fc37ce3b1d4e53fb91060",
		"d957c6965ffe5215be75e00f68c08f54ac7a092c30f00c6d0758dcccf550100a",
		"ac62721da66c109cd5e9be98358a596ab73a9b420ed31fbf37be17a9e7d4a0ab",
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
			"f38593c18b8277b2529032a4169ce01c429ca61270f4d7fb90867a299260cc19",
			"532dbd053a7a57f96855f51b5f49c951138e41353d7de3884d8ea39ea790b63c"},
		{5,
			"33add4145e4a4bb1543700958a8cc88a7bab1a1b03368c9120279f480b27e482",
			"215299fb4570c17adb5a7137850790f97b5fb73adb952ff65c89456acde54946"},
		{8,
			"75fe0dcab07c6e15cf80705e7b49d1e0ee8bff318ef4b0134ecd4c974c23bc92",
			"b84c2906fe97bced1401e1d932b880c839f0b72cc53b826dc347b65ffa33d1ba"},
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

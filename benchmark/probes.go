package main

// Isolated layer probes: small seeded request streams driven into one
// layer's public API with nothing else running, so that a layer's own
// host cost per unit of work has a number beside the traced workloads'.
// They run in every traced run and take well under a second together.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
)

// snapProbe measures Save, Restore and Fork on a finished machine of the
// workload (median of 3) and the snapshot's size.
func snapProbe(s *core.Sim, c *collect) error {
	var save, restore, fork []float64
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		buf.Reset()
		t0 := now()
		if err := s.Save(&buf); err != nil {
			return err
		}
		t1 := now()
		f, err := s.Fork()
		if err != nil {
			return err
		}
		t2 := now()
		err = f.Restore(bytes.NewReader(buf.Bytes()))
		t3 := now()
		f.M.Close()
		if err != nil {
			return err
		}
		save = append(save, float64(t1-t0))
		fork = append(fork, float64(t2-t1))
		restore = append(restore, float64(t3-t2))
	}
	c.layer["snap.save_ns"] = median(save)
	c.layer["snap.fork_ns"] = median(fork)
	c.layer["snap.restore_ns"] = median(restore)
	c.layer["snap.bytes"] = float64(buf.Len())
	return nil
}

// commonProbes runs the workload-independent probes.
func commonProbes(seed uint64, c *collect, res *result) {
	if err := memProbe(newRand(seed, 100), c); err != nil {
		res.fail(fmt.Errorf("mem probe: %w", err))
	}
	if err := nocProbe(newRand(seed, 101), c); err != nil {
		res.fail(fmt.Errorf("noc probe: %w", err))
	}
	rows, err := core.Table1()
	if err != nil {
		res.fail(fmt.Errorf("table 1: %w", err))
		return
	}
	// The model's error against the paper, beside the speed numbers:
	// the largest relative deviation of any Table 1 cell.
	worst := 0.0
	for _, r := range rows {
		worst = math.Max(worst, math.Abs(float64(r.Read-r.PaperRead))/float64(r.PaperRead))
		worst = math.Max(worst, math.Abs(float64(r.Write-r.PaperWrite))/float64(r.PaperWrite))
	}
	c.layer["core.table1_max_rel_err"] = worst
}

// memProbe times mem.System.Submit + Step per access class on one node's
// memory system: hits (a resident block), misses (mapped, LTLB-resident
// pages whose blocks were evicted) and LTLB misses (pages present only in
// the page table, which fault for software to handle).
func memProbe(rng *rand.Rand, c *collect) error {
	const accesses, chunks = 20000, 5 // per class: median of 5 chunk means
	cfg := mem.DefaultConfig()
	sys := mem.NewSystem(cfg)
	cacheWords := uint64(cfg.Cache.Lines) * mem.BlockWords
	// Pages 0..63 are LTLB-resident and cover twice the cache; pages from
	// 1024 up are in the page table only.
	residentPages := 2 * cacheWords / mem.PageWords
	for p := uint64(0); p < residentPages; p++ {
		sys.MapPage(p, 32+p, mem.BSReadWrite)
	}
	const coldBase, coldPages = 1024, 256
	for p := uint64(0); p < coldPages; p++ {
		sys.MapPageLPTOnly(coldBase+p, 512+p, mem.BSReadWrite)
	}
	cycle := int64(0)
	access := func(addr uint64, write bool) (mem.Response, error) {
		for !sys.CanAccept(cycle, addr) {
			cycle++
		}
		kind := mem.ReqRead
		if write {
			kind = mem.ReqWrite
		}
		sys.Submit(cycle, mem.Request{Kind: kind, Addr: addr, Data: addr, Pre: isa.SyncAny, Post: isa.SyncAny})
		for {
			cycle++
			if rs := sys.Step(cycle); len(rs) > 0 {
				return rs[0], nil
			}
			if cycle > 1<<40 {
				return mem.Response{}, fmt.Errorf("no response for address %d", addr)
			}
		}
	}
	class := func(name string, addr func(i int) uint64, wantFault mem.Fault) error {
		addrs := make([]uint64, accesses)
		var means []float64
		for k := 0; k < chunks; k++ {
			for i := range addrs {
				addrs[i] = addr(k*accesses + i)
			}
			t0 := now()
			for i, a := range addrs {
				r, err := access(a, i%4 == 3)
				if err != nil {
					return err
				}
				if r.Fault != wantFault {
					return fmt.Errorf("%s access to %d: fault %v, want %v", name, a, r.Fault, wantFault)
				}
			}
			means = append(means, float64(now()-t0)/accesses)
		}
		c.layer["mem.access_ns."+name] = median(means)
		return nil
	}
	// Hits: warm 64 blocks, then draw from them.
	for b := uint64(0); b < 64; b++ {
		if _, err := access(b*mem.BlockWords, false); err != nil {
			return err
		}
	}
	if err := class("hit", func(int) uint64 { return rng.Uint64N(64 * mem.BlockWords) }, mem.FaultNone); err != nil {
		return err
	}
	// Misses: walk block by block over twice the cache, so every block
	// was evicted by the time the walk returns to it.
	start := rng.Uint64N(2 * cacheWords / mem.BlockWords)
	if err := class("miss", func(i int) uint64 {
		return (start + uint64(i)) * mem.BlockWords % (2 * cacheWords)
	}, mem.FaultNone); err != nil {
		return err
	}
	return class("ltlb_miss", func(int) uint64 {
		return (coldBase+rng.Uint64N(coldPages))*mem.PageWords + rng.Uint64N(mem.PageWords)
	}, mem.FaultLTLBMiss)
}

// nocProbe times the network alone on a 4x4x2 mesh: seeded batches of
// messages are injected, stepped until delivered and popped; the cost is
// reported per message-hop.
func nocProbe(rng *rand.Rand, c *collect) error {
	const batches, perBatch = 400, 32
	net := noc.New(mesh32, noc.DefaultConfig())
	type pair struct{ src, dst int }
	plan := make([]pair, batches*perBatch)
	for i := range plan {
		plan[i] = pair{rng.IntN(32), rng.IntN(32)}
	}
	cycle := int64(0)
	popped := 0
	t0 := now()
	for b := 0; b < batches; b++ {
		for _, p := range plan[b*perBatch : (b+1)*perBatch] {
			net.Inject(cycle, &noc.Message{Src: net.CoordOf(p.src), Dst: net.CoordOf(p.dst), Body: []isa.Word{isa.W(uint64(p.dst))}})
		}
		for !net.Quiescent() {
			if net.NeedsStep(cycle) {
				net.Step(cycle)
				for _, n := range net.DeliveredNodes() {
					for net.Pop(net.CoordOf(n), 0) != nil {
						popped++
					}
				}
			}
			cycle++
			if cycle > 1<<30 {
				return fmt.Errorf("network did not drain")
			}
		}
	}
	wall := now() - t0
	if popped != len(plan) || net.Delivered != uint64(len(plan)) {
		return fmt.Errorf("%d of %d messages delivered", popped, len(plan))
	}
	c.layer["noc.msg_hop_ns"] = float64(wall) / float64(net.TotalHops)
	return nil
}

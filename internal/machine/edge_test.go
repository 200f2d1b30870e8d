package machine_test

import (
	"strings"
	"testing"

	"repro/internal/gtlb"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/rt"
)

func TestMapNodeRangeRoundsToPowerOfTwo(t *testing.T) {
	m := machine.New(machine.DefaultConfig())
	// 3 pages must round up to a 4-page group.
	if err := m.MapNodeRange(0, 3, 0); err != nil {
		t.Fatal(err)
	}
	e, err := m.GDT.Lookup(3 * gtlb.GTLBPageWords)
	if err != nil {
		t.Fatalf("page 3 not covered after rounding: %v", err)
	}
	if e.GroupPages != 4 {
		t.Errorf("group pages = %d, want 4", e.GroupPages)
	}
}

func TestMapNodeRangeOverlapRejected(t *testing.T) {
	m := machine.New(machine.DefaultConfig())
	if err := m.MapNodeRange(0, 4, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.MapNodeRange(2*gtlb.GTLBPageWords, 4, 1); err == nil {
		t.Error("overlapping page group accepted")
	}
}

func TestRunTimeoutReportsError(t *testing.T) {
	m, _ := newMachine(t, 1, rt.Options{})
	loadUser(t, m, 0, 0, 0, "loop: br loop")
	_, err := m.Run(500)
	if err == nil || !strings.Contains(err.Error(), "no completion") {
		t.Errorf("err = %v, want timeout", err)
	}
}

func TestFaultErrorIdentifiesThread(t *testing.T) {
	m, _ := newMachine(t, 1, rt.Options{})
	loadUser(t, m, 0, 2, 3, "movi i1, #1\nmovi i2, #0\ndiv i3, i1, i2\nhalt")
	_, err := m.Run(10000)
	if err == nil {
		t.Fatal("expected fault error")
	}
	if !strings.Contains(err.Error(), "vthread 2") || !strings.Contains(err.Error(), "cluster 3") {
		t.Errorf("fault error lacks thread identity: %v", err)
	}
}

func TestMapLocalAllocatesDistinctFrames(t *testing.T) {
	m, _ := newMachine(t, 1, rt.Options{})
	p1 := m.MapLocal(0, 10, mem.BSReadWrite, true)
	p2 := m.MapLocal(0, 11, mem.BSReadWrite, true)
	if p1 == p2 {
		t.Error("MapLocal reused a physical page")
	}
	// Writes through the two mappings must not alias.
	if err := m.Poke(0, 10*512, 111); err != nil {
		t.Fatal(err)
	}
	if err := m.Poke(0, 11*512, 222); err != nil {
		t.Fatal(err)
	}
	w1, _ := m.Peek(0, 10*512)
	w2, _ := m.Peek(0, 11*512)
	if w1 != 111 || w2 != 222 {
		t.Errorf("aliasing: %d/%d", w1, w2)
	}
}

func TestPokeUnmappedFails(t *testing.T) {
	m, _ := newMachine(t, 1, rt.Options{})
	if err := m.Poke(0, 999*512, 1); err == nil {
		t.Error("Poke of unmapped address succeeded")
	}
}

func TestRuntimeAllocatorLayoutDisjoint(t *testing.T) {
	// The boot layout must keep MapLocal frames, the LPT, scratch, the
	// allocator counter, and runtime-allocated pages disjoint.
	cfg := machine.DefaultConfig().Chip.Mem
	lptStart := cfg.LPT.Base
	lptEnd := lptStart + cfg.LPT.Entries*mem.PTEWords
	scratch := machine.ScratchBase(cfg)
	ctr := machine.AllocCounterAddr(cfg)
	allocStart := machine.AllocBasePPN(cfg) * mem.PageWords

	if machine.FirstMapPPN*mem.PageWords >= lptStart {
		t.Error("MapLocal frames start inside the LPT")
	}
	if scratch < lptEnd {
		t.Error("scratch overlaps the LPT")
	}
	if ctr < scratch {
		t.Error("allocator counter below scratch")
	}
	if allocStart <= ctr {
		t.Error("runtime pages overlap the allocator counter")
	}
	if allocStart >= cfg.SDRAM.Words {
		t.Error("runtime pages start beyond physical memory")
	}
}

func TestUserDoneIgnoresEventThreads(t *testing.T) {
	m, _ := newMachine(t, 1, rt.Options{})
	// No user threads loaded: the machine is immediately done even though
	// the event V-Thread handlers run forever.
	if !m.UserDone() {
		t.Error("machine with only event handlers should be user-done")
	}
	if _, err := m.Run(1000); err != nil {
		t.Errorf("empty run: %v", err)
	}
}

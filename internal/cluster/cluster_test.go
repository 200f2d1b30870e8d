package cluster

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

func TestRegFileScoreboard(t *testing.T) {
	rf := New(0).Threads[0].Ints
	// Registers start full and zero so threads have defined state.
	for i := 0; i < 16; i++ {
		if !rf.Full(i) || rf.Get(i).Bits != 0 {
			t.Fatalf("reg %d not initialized full/zero", i)
		}
	}
	rf.MarkEmpty(3)
	if rf.Full(3) {
		t.Error("MarkEmpty did not clear scoreboard")
	}
	rf.Set(3, isa.Word{Bits: 42, Ptr: true})
	if !rf.Full(3) || rf.Get(3).Bits != 42 || !rf.Get(3).Ptr {
		t.Error("Set did not write value+tag and mark full")
	}
	if rf.Len() != 16 {
		t.Errorf("Len = %d", rf.Len())
	}
}

func TestHThreadLifecycle(t *testing.T) {
	h := New(0).Threads[0]
	if h.Status != ThreadEmpty || h.Current() != nil {
		t.Fatal("fresh thread should be empty with no instruction")
	}
	p := asm.MustAssemble("t", "nop\nhalt")
	h.Load(p, true)
	if h.Status != ThreadRunning || !h.Privileged {
		t.Fatal("Load did not start the thread")
	}
	in := h.Current()
	if in == nil || in != &p.Insts[0] {
		t.Fatal("Current returned wrong instruction")
	}
	h.PC = 2 // past the end
	if h.Current() != nil {
		t.Error("Current past program end should be nil")
	}
	h.Fault("bad")
	if h.Status != ThreadFaulted || h.FaultMsg != "bad" {
		t.Error("Fault did not record state")
	}
	if h.Current() != nil {
		t.Error("faulted thread should not present instructions")
	}
}

func TestHThreadFiles(t *testing.T) {
	h := New(0).Threads[0]
	if h.File(isa.RInt) != h.Ints || h.File(isa.RFP) != h.FPs {
		t.Error("File dispatch wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("File(RGCC) should panic: GCCs live on the cluster")
		}
	}()
	h.File(isa.RGCC)
}

func TestGCCFileStartsEmpty(t *testing.T) {
	g := New(0).GCC
	for i := 0; i < isa.NumGCCRegs; i++ {
		if g.Full(i) {
			t.Fatalf("gcc%d should start empty: it must be produced before consumption", i)
		}
	}
	g.Set(1, isa.W(1))
	if !g.Full(1) || g.Get(1).Bits != 1 {
		t.Error("Set failed")
	}
	g.MarkEmpty(1)
	if g.Full(1) {
		t.Error("MarkEmpty failed")
	}
}

func TestClusterNew(t *testing.T) {
	c := New(2)
	if c.ID != 2 || len(c.Threads) != isa.NumVThreads {
		t.Fatalf("cluster = %+v", c)
	}
	for _, th := range c.Threads {
		if th == nil || th.Status != ThreadEmpty {
			t.Fatal("thread slots not initialized")
		}
	}
	if c.Live != 0 {
		t.Errorf("Live = %06b, want no slot running", c.Live)
	}
}

func TestThreadStatusString(t *testing.T) {
	want := map[ThreadStatus]string{
		ThreadEmpty: "empty", ThreadRunning: "running",
		ThreadHalted: "halted", ThreadFaulted: "faulted",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
}

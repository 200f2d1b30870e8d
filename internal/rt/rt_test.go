package rt

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
)

func TestNewAssemblesAllHandlers(t *testing.T) {
	for _, caching := range []bool{false, true} {
		r, err := New(mem.DefaultConfig(), Options{Caching: caching})
		if err != nil {
			t.Fatalf("caching=%v: %v", caching, err)
		}
		for name, p := range map[string]*isa.Program{
			"fault": r.FaultHandler, "ltlb": r.LTLBHandler,
			"msg": r.MsgHandler, "reply": r.ReplyHandler,
		} {
			if p == nil || p.Len() == 0 {
				t.Errorf("caching=%v: %s handler empty", caching, name)
			}
		}
	}
}

func TestDIPsAreDistinctAndValid(t *testing.T) {
	r, err := New(mem.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dips := map[string]uint64{
		"rwrite":   r.DIPRemoteWrite,
		"rwritesy": r.DIPRemoteWriteSync,
		"rread":    r.DIPRemoteRead,
		"bfetch":   r.DIPBlockFetch,
		"rpcadd":   r.DIPFetchAdd,
		"bwrite":   r.DIPBlockWrite,
	}
	seen := map[uint64]string{}
	for name, d := range dips {
		if int(d) >= r.MsgHandler.Len() {
			t.Errorf("%s DIP %d outside message handler (%d insts)", name, d, r.MsgHandler.Len())
		}
		if prev, dup := seen[d]; dup {
			t.Errorf("DIPs %s and %s collide at %d", prev, name, d)
		}
		seen[d] = name
	}
	for name, d := range map[string]uint64{"rreply": r.DIPReadReply, "breply": r.DIPBlockReply} {
		if int(d) >= r.ReplyHandler.Len() {
			t.Errorf("%s DIP %d outside reply handler", name, d)
		}
	}
	if r.DIPReadReply == r.DIPBlockReply {
		t.Error("reply DIPs collide")
	}
}

func TestHandlersAreLoops(t *testing.T) {
	// Every handler must loop forever: no HALT anywhere (a halted event
	// V-Thread would wedge the machine).
	r, err := New(mem.DefaultConfig(), Options{Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*isa.Program{
		"fault": r.FaultHandler, "ltlb": r.LTLBHandler,
		"msg": r.MsgHandler, "reply": r.ReplyHandler,
	} {
		for i, in := range p.Insts {
			for _, op := range in.Ops() {
				if op.Code == isa.HALT {
					t.Errorf("%s handler has HALT at instruction %d", name, i)
				}
			}
		}
	}
}

func TestHandlersUseOnlyLegalRegisters(t *testing.T) {
	r, err := New(mem.DefaultConfig(), Options{Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, p *isa.Program) {
		for i, in := range p.Insts {
			for _, op := range in.Ops() {
				for _, reg := range []isa.Reg{op.Dst, op.Src1, op.Src2} {
					if reg.Class == isa.RInt && reg.Index >= isa.NumIntRegs {
						t.Errorf("%s inst %d: bad register %v", name, i, reg)
					}
				}
				// Multi-register operands must stay in range (the
				// assembler itself rejects a SEND body outside the file).
				if (op.Code == isa.TLBW || op.Code == isa.MRETRY) && int(op.Src1.Index)+3 >= isa.NumIntRegs {
					t.Errorf("%s inst %d: %s operand block overflows file", name, i, op.Code)
				}
			}
		}
	}
	check("fault", r.FaultHandler)
	check("ltlb", r.LTLBHandler)
	check("msg", r.MsgHandler)
	check("reply", r.ReplyHandler)
}

func TestInstallLoadsEventSlots(t *testing.T) {
	m := machine.New(machine.DefaultConfig())
	r, err := Install(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.NumNodes(); i++ {
		for cl := 0; cl < isa.NumClusters; cl++ {
			th := m.Chip(i).Thread(isa.EventSlot, cl)
			if th.Prog == nil || !th.Privileged {
				t.Errorf("node %d cluster %d: event handler not installed/privileged", i, cl)
			}
		}
	}
	_ = r
}

func TestHandlerProgramsDifferByPolicy(t *testing.T) {
	nc, err := New(mem.DefaultConfig(), Options{Caching: false})
	if err != nil {
		t.Fatal(err)
	}
	ca, err := New(mem.DefaultConfig(), Options{Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	if nc.LTLBHandler.Len() == ca.LTLBHandler.Len() &&
		nc.LTLBHandler.String() == ca.LTLBHandler.String() {
		t.Error("caching and non-cached LTLB handlers should differ")
	}
	// The message and reply handlers are shared between policies.
	if nc.MsgHandler.String() != ca.MsgHandler.String() {
		t.Error("message handlers should be identical across policies")
	}
}

func TestHandlersSurviveBinaryEncoding(t *testing.T) {
	// The real handler programs are the richest ISA streams in the
	// repository: round-trip them through the binary instruction encoding.
	r, err := New(mem.DefaultConfig(), Options{Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*isa.Program{
		"fault": r.FaultHandler, "ltlb": r.LTLBHandler,
		"msg": r.MsgHandler, "reply": r.ReplyHandler, "exc": r.ExcHandler,
	} {
		ws := isa.EncodeProgram(p)
		got, err := isa.DecodeProgram(name, ws)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Len() != p.Len() {
			t.Fatalf("%s: %d vs %d instructions", name, got.Len(), p.Len())
		}
		// Labels are an assembler artifact not carried by the binary form;
		// compare with branch targets rendered numerically on both sides.
		stripLabels := func(in isa.Inst) string {
			cp := in
			for _, set := range []**isa.Op{&cp.IOp, &cp.MOp, &cp.FOp} {
				if *set != nil {
					op := **set
					op.Label = ""
					*set = &op
				}
			}
			return cp.String()
		}
		for i := range p.Insts {
			if got.Insts[i].String() != stripLabels(p.Insts[i]) {
				t.Errorf("%s inst %d: %q vs %q", name, i,
					got.Insts[i].String(), stripLabels(p.Insts[i]))
			}
		}
	}
}

package chip

import (
	"math/rand/v2"
	"testing"

	"repro/internal/cluster"
	"repro/internal/events"
	"repro/internal/gtlb"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
)

// The ready check as it was before the operand summaries, operand by
// operand (renamed, otherwise verbatim): the reference the mask-based
// check must agree with.

func (c *Chip) refReady(now int64, vt, cl int, th *cluster.HThread, in *isa.Inst) bool {
	for _, op := range [3]*isa.Op{in.IOp, in.MOp, in.FOp} {
		if op != nil && !c.refOpReady(now, vt, cl, th, op) {
			return false
		}
	}
	return true
}

func (c *Chip) refOpReady(now int64, vt, cl int, th *cluster.HThread, op *isa.Op) bool {
	// Source operands must be full.
	if !c.refSrcReady(vt, cl, th, op.Src1) || !c.refSrcReady(vt, cl, th, op.Src2) {
		return false
	}
	// Multi-register operands (TLBW, MRETRY read 4 consecutive registers;
	// SEND reads the body registers).
	switch op.Code {
	case isa.TLBW, isa.MRETRY:
		base := int(op.Src1.Index)
		for i := 0; i < 4; i++ {
			if base+i >= th.Ints.Len() || !th.Ints.Full(base+i) {
				return false
			}
		}
	case isa.SEND, isa.SENDN:
		if !op.SendBodyInFile() {
			return true // issue and fault synchronously
		}
		base := int(op.Dst.Index)
		for i := 0; i < int(op.Imm); i++ {
			if !th.Ints.Full(base + i) {
				return false
			}
		}
		if op.Code == isa.SEND && op.Pri == 0 && c.credits <= 0 {
			// Throttling: "threads attempting to execute a SEND
			// instruction will stall" when no buffer space remains.
			c.SendsBlocked++
			return false
		}
	}
	// Local destination must not have a pending writer (scoreboard WAW
	// rule); EMPTY only clears, and GCC broadcasts overwrite.
	if !op.Dst.IsZero() && op.Code != isa.EMPTY && op.Code != isa.SEND && op.Code != isa.SENDN {
		switch op.Dst.Class {
		case isa.RInt, isa.RFP:
			if op.Dst.Cluster == isa.ClusterSelf && !th.File(op.Dst.Class).Full(int(op.Dst.Index)) {
				return false
			}
			if op.Dst.Cluster != isa.ClusterSelf && c.cswitchUsed >= c.Cfg.CSwitchPorts {
				return false
			}
		}
	}
	// Memory unit resource checks.
	switch op.Code {
	case isa.LD, isa.ST, isa.LDSY, isa.STSY, isa.LDP, isa.STP:
		addr, _, err := c.effAddr(th, op)
		if err != nil {
			return true // issue and fault synchronously
		}
		if !c.Mem.CanAccept(now, addr) {
			return false
		}
	case isa.MRETRY:
		rec := c.readRecord(th, int(op.Src1.Index))
		if !c.Mem.CanAccept(now, rec.VAddr) {
			return false
		}
	}
	return true
}

// refSrcReady checks a source operand's scoreboard (or queue) state.
func (c *Chip) refSrcReady(vt, cl int, th *cluster.HThread, r isa.Reg) bool {
	switch r.Class {
	case isa.RNone:
		return true
	case isa.RInt, isa.RFP:
		return th.File(r.Class).Full(int(r.Index))
	case isa.RGCC:
		return c.Clusters[cl].GCC.Full(int(r.Index))
	case isa.RSpec:
		switch r.Index {
		case isa.SpecNet, isa.SpecEvq:
			q := c.queueFor(vt, cl, int(r.Index))
			return q != nil && !q.Empty()
		default:
			return true
		}
	}
	return false
}

// randReg draws an operand shape: none, a local integer or FP register
// (the common case), a GCC, a special (net, evq, node, thr, cyc and one
// past them), a cross-cluster register or a class outside the ISA.
func randReg(rng *rand.Rand) isa.Reg {
	switch rng.IntN(10) {
	case 0:
		return isa.Reg{}
	case 1, 2, 3:
		return isa.Int(rng.IntN(isa.NumIntRegs))
	case 4, 5:
		return isa.FP(rng.IntN(isa.NumFPRegs))
	case 6:
		return isa.GCC(rng.IntN(isa.NumGCCRegs))
	case 7:
		return isa.Spec(rng.IntN(isa.SpecCyc + 2))
	case 8:
		r := isa.Int(rng.IntN(isa.NumIntRegs))
		if rng.IntN(2) == 0 {
			r = isa.FP(rng.IntN(isa.NumFPRegs))
		}
		return isa.Remote(rng.IntN(isa.NumClusters), r)
	}
	return isa.Reg{Class: isa.RSpec + 1 + isa.RegClass(rng.IntN(3)), Index: uint8(rng.IntN(16)), Cluster: isa.ClusterSelf}
}

// randOp draws an operation of the given code with random operands. A
// TLBW/MRETRY record always lies in the file: one outside it faults where
// the reference stalls, which TestRecordOutsideRegisterFileFaults covers.
func randOp(rng *rand.Rand, code isa.Opcode) *isa.Op {
	op := &isa.Op{Code: code, Dst: randReg(rng), Src1: randReg(rng), Src2: randReg(rng), HasImm: rng.IntN(2) == 0}
	op.Imm = [...]int64{-1, 0, 1, 2, 3, 8, 16, 100}[rng.IntN(8)]
	if rng.IntN(4) == 0 {
		op.Pri = 1
	}
	if (code == isa.TLBW || code == isa.MRETRY) && !op.RecordInFile() {
		op.Src1 = isa.Int(rng.IntN(isa.NumIntRegs - 3))
	}
	return op
}

func randWord(rng *rand.Rand) isa.Word {
	return isa.Word{Bits: rng.Uint64() >> (rng.IntN(4) * 16), Ptr: rng.IntN(2) == 0}
}

// TestReadyMasksMatchReference: for every opcode in every slot, beside
// random companion operations, over random scoreboards, GCC replicas,
// queue contents, send credits, C-Switch budgets, busy memory banks,
// slots and privilege, the mask-based ready check answers as the
// reference does and counts the same throttled SENDs.
func TestReadyMasksMatchReference(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg, noc.Coord{}, 0, noc.New(noc.Coord{X: 2, Y: 1, Z: 1}, cfg.Net), &gtlb.Table{})
	rng := rand.New(rand.NewPCG(27, 1))
	var ready [isa.FTOI + 1]int
	var blocked uint64
	const perCode = 600
	now := int64(0)
	for code := isa.NOP; code <= isa.FTOI; code++ {
		for i := 0; i < perCode; i++ {
			now++
			var ops [3]*isa.Op
			for k := range ops {
				if rng.IntN(3) == 0 {
					ops[k] = randOp(rng, isa.Opcode(rng.IntN(int(isa.FTOI)+1)))
				}
			}
			ops[rng.IntN(3)] = randOp(rng, code)
			p := &isa.Program{Insts: []isa.Inst{{IOp: ops[0], MOp: ops[1], FOp: ops[2]}}}
			p.Prepare()
			in := &p.Insts[0]

			vt, cl := rng.IntN(isa.NumVThreads), rng.IntN(isa.NumClusters)
			th := c.Clusters[cl].Threads[vt]
			th.Privileged = rng.IntN(2) == 0
			for r := 0; r < isa.NumIntRegs; r++ {
				for _, f := range []*cluster.RegFile{th.Ints, th.FPs} {
					f.Set(r, randWord(rng))
					if rng.IntN(8) == 0 {
						f.MarkEmpty(r)
					}
				}
			}
			for g := 0; g < isa.NumGCCRegs; g++ {
				c.Clusters[cl].GCC.Set(g, randWord(rng))
				if rng.IntN(2) == 0 {
					c.Clusters[cl].GCC.MarkEmpty(g)
				}
			}
			for _, q := range append([]*events.Queue{c.excq, c.msgq[0], c.msgq[1]}, c.evq[:]...) {
				for !q.Empty() {
					q.Pop()
				}
				if rng.IntN(2) == 0 {
					q.PushWords([]isa.Word{randWord(rng)})
				}
			}
			c.credits = rng.IntN(3)
			c.cswitchUsed = rng.IntN(cfg.CSwitchPorts + 1)
			for b := uint64(0); b < 4; b++ {
				if rng.IntN(2) == 0 {
					c.Mem.Submit(now, mem.Request{Kind: mem.ReqReadPhys, Addr: b})
				}
			}
			if rng.IntN(64) == 0 {
				c.Mem.Step(now)
			}

			base := c.SendsBlocked
			want := c.refReady(now, vt, cl, th, in)
			wantBlocked := c.SendsBlocked - base
			c.SendsBlocked = base
			got := c.ready(now, vt, cl, th, in)
			if gotBlocked := c.SendsBlocked - base; got != want || gotBlocked != wantBlocked {
				t.Fatalf("%v in slot %d of cluster %d (privileged %v, credits %d, C-Switch %d used): ready %v, SendsBlocked +%d; reference %v, +%d",
					in, vt, cl, th.Privileged, c.credits, c.cswitchUsed, got, gotBlocked, want, wantBlocked)
			}
			if got {
				ready[code]++
			}
			blocked += wantBlocked
		}
	}
	for code := isa.NOP; code <= isa.FTOI; code++ {
		if ready[code] == 0 || ready[code] == perCode {
			t.Errorf("%v: ready in %d of %d cases; the states do not exercise both answers", code, ready[code], perCode)
		}
	}
	if blocked == 0 {
		t.Error("no SEND was throttled")
	}
}

package chip

// Operation semantics. execute performs one operation at issue time:
// immediate effects (branches, queue pops, protection checks, memory
// submits) happen now; results are scheduled for writeback after the
// operation's latency, setting the destination's scoreboard bit when they
// arrive.

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/events"
	"repro/internal/gp"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// ptrAddr offsets a guarded pointer without a permission check (privileged
// threads), still enforcing segment bounds.
func ptrAddr(w isa.Word, off int64) (uint64, bool, error) {
	p, err := gp.Pointer(w.Bits).Add(off)
	if err != nil {
		return 0, false, err
	}
	return p.Addr(), false, nil
}

// ptrAddrChecked offsets and permission-checks a guarded pointer for a user
// access.
func ptrAddrChecked(w isa.Word, off int64, write bool) (uint64, bool, error) {
	p := gp.Pointer(w.Bits)
	if err := p.CheckAccess(write); err != nil {
		return 0, write, err
	}
	q, err := p.Add(off)
	if err != nil {
		return 0, write, err
	}
	return q.Addr(), write, nil
}

// execute runs one operation. It returns (newPC, true) when the operation
// redirects control flow.
func (c *Chip) execute(now int64, vt, cl int, th *cluster.HThread, op *isa.Op) (int, bool) {
	switch op.Code {
	case isa.NOP:
		return 0, false

	case isa.HALT:
		th.Status = cluster.ThreadHalted
		return 0, false

	case isa.BR:
		return int(op.Imm), true
	case isa.BRT:
		v := c.readSrc(vt, cl, th, op.Src1)
		if v.Bits != 0 {
			return int(op.Imm), true
		}
		return 0, false
	case isa.BRF:
		v := c.readSrc(vt, cl, th, op.Src1)
		if v.Bits == 0 {
			return int(op.Imm), true
		}
		return 0, false
	case isa.JMPR:
		v := c.readSrc(vt, cl, th, op.Src1)
		return int(v.Bits), true

	case isa.MOVI:
		c.writeDst(now, vt, cl, op, c.Cfg.IntLat, isa.W(uint64(op.Imm)))
		return 0, false
	case isa.MOV:
		v := c.readSrc(vt, cl, th, op.Src1)
		c.writeDst(now, vt, cl, op, c.Cfg.IntLat, v)
		return 0, false

	case isa.EMPTY:
		switch op.Dst.Class {
		case isa.RGCC:
			c.Clusters[cl].GCC.MarkEmpty(int(op.Dst.Index))
		case isa.RInt, isa.RFP:
			th.File(op.Dst.Class).MarkEmpty(int(op.Dst.Index))
		}
		return 0, false

	case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.MOD, isa.AND, isa.OR,
		isa.XOR, isa.SHL, isa.SHR, isa.SRA, isa.EQ, isa.NE, isa.LT,
		isa.LE, isa.GT, isa.GE:
		a := c.readSrc(vt, cl, th, op.Src1)
		var b isa.Word
		if op.HasImm {
			b = isa.W(uint64(op.Imm))
		} else {
			b = c.readSrc(vt, cl, th, op.Src2)
		}
		res, err := intALU(op.Code, a.Bits, b.Bits)
		if err != nil {
			c.protFault(vt, cl, th, err.Error())
			return 0, false
		}
		c.writeDst(now, vt, cl, op, c.Cfg.IntLat, isa.W(res))
		return 0, false

	case isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.FNEG, isa.FMOV,
		isa.FEQ, isa.FLT, isa.FLE, isa.ITOF, isa.FTOI:
		c.executeFP(now, vt, cl, th, op)
		return 0, false

	case isa.LD, isa.LDSY, isa.ST, isa.STSY, isa.LDP, isa.STP:
		c.executeMem(now, vt, cl, th, op)
		return 0, false

	case isa.LEA:
		c.executeLEA(now, vt, cl, th, op)
		return 0, false

	case isa.SETPTR:
		base := c.readSrc(vt, cl, th, op.Src1)
		perms, segLen := gp.UnpackSetptr(op.Imm)
		p, err := gp.Make(perms, segLen, base.Bits)
		if err != nil {
			c.protFault(vt, cl, th, err.Error())
			return 0, false
		}
		c.writeDst(now, vt, cl, op, c.Cfg.IntLat, isa.Word{Bits: uint64(p), Ptr: true})
		return 0, false

	case isa.SEND, isa.SENDN:
		c.executeSend(now, vt, cl, th, op)
		return 0, false

	case isa.GPROBE:
		addr := c.readSrc(vt, cl, th, op.Src1)
		a := addr.Bits
		if addr.Ptr {
			a = gp.Pointer(addr.Bits).Addr()
		}
		node, err := c.GTLB.Translate(a)
		res := uint64(math.MaxUint64)
		if err == nil {
			res = uint64(c.Net.Index(gtlbToNoc(node)))
		}
		c.writeDst(now, vt, cl, op, c.Cfg.GTLBLat, isa.W(res))
		return 0, false

	case isa.TLBW:
		rec := c.readRecord(th, int(op.Src1.Index))
		var ws [mem.PTEWords]uint64
		for i := range ws {
			ws[i] = rec.w[i].Bits
		}
		c.Mem.TLBInstall(ws)
		c.trace(trace.Event{Kind: trace.TLBW, Arg: ws[0] >> 1})
		return 0, false

	case isa.TLBINV:
		v := c.readSrc(vt, cl, th, op.Src1)
		c.Mem.TLBInvalidate(v.Bits)
		return 0, false

	case isa.BSW:
		a := c.readSrc(vt, cl, th, op.Src1)
		s := c.readSrc(vt, cl, th, op.Src2)
		c.Mem.SetBlockStatus(a.Bits, mem.BlockStatus(s.Bits&3))
		return 0, false

	case isa.BSR:
		a := c.readSrc(vt, cl, th, op.Src1)
		st := c.Mem.BlockStatusOf(a.Bits)
		c.writeDst(now, vt, cl, op, c.Cfg.IntLat, isa.W(uint64(st)))
		return 0, false

	case isa.MRETRY:
		rec := c.readRecord(th, int(op.Src1.Index))
		r := events.Decode(rec.w)
		c.submitMem(now, r.Request(), reqMeta{
			isRetry: true,
			regDesc: r.RegDesc,
			data:    r.Data,
		})
		c.trace(trace.Event{Kind: trace.MRetry, Arg: r.VAddr})
		return 0, false

	case isa.RSTW:
		desc := c.readSrc(vt, cl, th, op.Src1)
		data := c.readSrc(vt, cl, th, op.Src2)
		dvt, dcl, reg := isa.UnpackRegDesc(desc.Bits)
		c.schedule(now+c.Cfg.XferLat, dvt, dcl, reg, data)
		c.trace(trace.Event{Kind: trace.RSTW, Arg: desc.Bits})
		return 0, false

	case isa.DIRLOG:
		a := c.readSrc(vt, cl, th, op.Src1)
		n := c.readSrc(vt, cl, th, op.Src2)
		blk := a.Bits &^ uint64(mem.BlockWords-1)
		c.directory[blk] = append(c.directory[blk], int(n.Bits))
		return 0, false

	case isa.DIRCNT:
		a := c.readSrc(vt, cl, th, op.Src1)
		blk := a.Bits &^ uint64(mem.BlockWords-1)
		c.writeDst(now, vt, cl, op, c.Cfg.IntLat, isa.W(uint64(len(c.directory[blk]))))
		return 0, false
	}
	c.protFault(vt, cl, th, fmt.Sprintf("unimplemented opcode %s", op.Code))
	return 0, false
}

func intALU(code isa.Opcode, a, b uint64) (uint64, error) {
	sa, sb := int64(a), int64(b)
	boolW := func(v bool) (uint64, error) {
		if v {
			return 1, nil
		}
		return 0, nil
	}
	switch code {
	case isa.ADD:
		return a + b, nil
	case isa.SUB:
		return a - b, nil
	case isa.MUL:
		return uint64(sa * sb), nil
	case isa.DIV:
		if sb == 0 {
			return 0, fmt.Errorf("integer divide by zero")
		}
		return uint64(sa / sb), nil
	case isa.MOD:
		if sb == 0 {
			return 0, fmt.Errorf("integer modulo by zero")
		}
		return uint64(sa % sb), nil
	case isa.AND:
		return a & b, nil
	case isa.OR:
		return a | b, nil
	case isa.XOR:
		return a ^ b, nil
	case isa.SHL:
		return a << (b & 63), nil
	case isa.SHR:
		return a >> (b & 63), nil
	case isa.SRA:
		return uint64(sa >> (b & 63)), nil
	case isa.EQ:
		return boolW(a == b)
	case isa.NE:
		return boolW(a != b)
	case isa.LT:
		return boolW(sa < sb)
	case isa.LE:
		return boolW(sa <= sb)
	case isa.GT:
		return boolW(sa > sb)
	case isa.GE:
		return boolW(sa >= sb)
	}
	panic("unreachable")
}

func (c *Chip) executeFP(now int64, vt, cl int, th *cluster.HThread, op *isa.Op) {
	f := func(w isa.Word) float64 { return math.Float64frombits(w.Bits) }
	a := c.readSrc(vt, cl, th, op.Src1)
	var b isa.Word
	if !op.Src2.IsZero() {
		b = c.readSrc(vt, cl, th, op.Src2)
	}
	lat := c.Cfg.FPLat
	var res uint64
	switch op.Code {
	case isa.FADD:
		res = math.Float64bits(f(a) + f(b))
	case isa.FSUB:
		res = math.Float64bits(f(a) - f(b))
	case isa.FMUL:
		res = math.Float64bits(f(a) * f(b))
	case isa.FDIV:
		res = math.Float64bits(f(a) / f(b))
		lat = c.Cfg.FDivLat
	case isa.FNEG:
		res = math.Float64bits(-f(a))
	case isa.FMOV:
		res = a.Bits
		lat = c.Cfg.IntLat
	case isa.FEQ:
		if f(a) == f(b) {
			res = 1
		}
	case isa.FLT:
		if f(a) < f(b) {
			res = 1
		}
	case isa.FLE:
		if f(a) <= f(b) {
			res = 1
		}
	case isa.ITOF:
		res = math.Float64bits(float64(int64(a.Bits)))
		lat = 2
	case isa.FTOI:
		res = uint64(int64(f(a)))
		lat = 2
	}
	c.writeDst(now, vt, cl, op, lat, isa.W(res))
}

func (c *Chip) executeMem(now int64, vt, cl int, th *cluster.HThread, op *isa.Op) {
	addr, write, err := c.effAddr(th, op)
	if err != nil {
		c.protFault(vt, cl, th, err.Error())
		return
	}
	var kind mem.Kind
	switch op.Code {
	case isa.LD, isa.LDSY:
		kind = mem.ReqRead
	case isa.ST, isa.STSY:
		kind = mem.ReqWrite
	case isa.LDP:
		kind = mem.ReqReadPhys
	case isa.STP:
		kind = mem.ReqWritePhys
	}
	req := mem.Request{Kind: kind, Addr: addr, Pre: op.Pre, Post: op.Post}
	meta := reqMeta{vthread: vt, cl: cl}
	if vt < isa.NumUserSlots {
		c.trace(trace.Event{Kind: trace.MemIssue, Sub: uint8(kind), Arg: addr})
	}
	if write {
		v := c.readSrc(vt, cl, th, op.Src2)
		req.Data, req.DataPtr = v.Bits, v.Ptr
		meta.data = v
	} else {
		meta.dst = op.Dst
		// The destination scoreboard bit clears at issue and fills at
		// writeback; the thread "does not block until it needs the data".
		th.File(op.Dst.Class).MarkEmpty(int(op.Dst.Index))
	}
	c.submitMem(now, req, meta)
}

func (c *Chip) executeLEA(now int64, vt, cl int, th *cluster.HThread, op *isa.Op) {
	base := c.readSrc(vt, cl, th, op.Src1)
	off := op.Imm
	if !op.HasImm {
		off = int64(c.readSrc(vt, cl, th, op.Src2).Bits)
	}
	if !base.Ptr {
		if th.Privileged {
			// Privileged threads may do raw address arithmetic with LEA.
			c.writeDst(now, vt, cl, op, c.Cfg.IntLat, isa.W(base.Bits+uint64(off)))
			return
		}
		c.protFault(vt, cl, th, "lea on untagged word")
		return
	}
	p, err := gp.Pointer(base.Bits).Add(off)
	if err != nil {
		c.protFault(vt, cl, th, err.Error())
		return
	}
	c.writeDst(now, vt, cl, op, c.Cfg.IntLat, isa.Word{Bits: uint64(p), Ptr: true})
}

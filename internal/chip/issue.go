package chip

// The synchronization pipeline stage (Section 3.2): each cycle, each
// cluster holds the next instruction from each of the six resident
// V-Threads and issues one whose operands are all present and whose
// resources are all available. A stalled H-Thread consumes nothing but its
// thread slot; V-Threads interleave with zero switch cost.

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/trace"
)

// issueCluster selects and issues at most one instruction on cluster cl,
// reporting whether one issued. Ready V-Threads are served round-robin
// across all six slots, so event handlers and user threads share the
// cluster fairly ("Multiple V-Threads may be interleaved with zero delay",
// Section 3.2; the paper specifies no fixed priority among ready threads).
// Threads that stall are recorded in idleStalled so SkipCycles can replay
// the scan's stat effects over fast-forwarded idle cycles.
func (c *Chip) issueCluster(now int64, cl int) bool {
	cc := c.Clusters[cl]
	start := cc.LastIssued + 1
	for i := 0; i < isa.NumVThreads; i++ {
		vt := (start + i) % isa.NumVThreads
		th := cc.Threads[vt]
		in := th.Current()
		if in == nil {
			continue
		}
		if !c.ready(now, vt, cl, th, in) {
			th.StallCycles++
			c.idleStalled = append(c.idleStalled, th)
			continue
		}
		c.issue(now, vt, cl, th, in)
		cc.LastIssued = vt
		return true
	}
	return false
}

// ready implements the scoreboard and resource checks for a whole
// instruction: all operations issue together or not at all.
func (c *Chip) ready(now int64, vt, cl int, th *cluster.HThread, in *isa.Inst) bool {
	for _, op := range in.Ops() {
		if !c.opReady(now, vt, cl, th, op) {
			return false
		}
	}
	return true
}

func (c *Chip) opReady(now int64, vt, cl int, th *cluster.HThread, op *isa.Op) bool {
	// Source operands must be full.
	for _, src := range []isa.Reg{op.Src1, op.Src2} {
		if !c.srcReady(vt, cl, th, src) {
			return false
		}
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
		base := int(op.Dst.Index)
		for i := 0; i < int(op.Imm); i++ {
			if base+i >= th.Ints.Len() || !th.Ints.Full(base+i) {
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

// srcReady checks a source operand's scoreboard (or queue) state.
func (c *Chip) srcReady(vt, cl int, th *cluster.HThread, r isa.Reg) bool {
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

// queueFor maps a (slot, cluster) net/evq read to its hardware queue, per
// the paper's assignment of event-handling H-Threads to clusters. Reads
// from slots without a queue return nil and never become ready.
func (c *Chip) queueFor(vt, cl int, spec int) *events.Queue {
	if vt == isa.ExceptionSlot && spec == isa.SpecEvq {
		return c.excq
	}
	if vt != isa.EventSlot {
		return nil
	}
	switch spec {
	case isa.SpecNet:
		switch cl {
		case MsgPri0Cluster:
			return c.msgq[0]
		case MsgPri1Cluster:
			return c.msgq[1]
		}
	case isa.SpecEvq:
		if cl == FaultCluster || cl == LTLBCluster {
			return c.evq[cl]
		}
	}
	return nil
}

// readSrc fetches a source operand's value at issue time. Reads of net/evq
// pop the hardware queue (register-mapped dequeue).
func (c *Chip) readSrc(vt, cl int, th *cluster.HThread, r isa.Reg) isa.Word {
	switch r.Class {
	case isa.RInt, isa.RFP:
		return th.File(r.Class).Get(int(r.Index))
	case isa.RGCC:
		return c.Clusters[cl].GCC.Get(int(r.Index))
	case isa.RSpec:
		switch r.Index {
		case isa.SpecNet, isa.SpecEvq:
			return c.queueFor(vt, cl, int(r.Index)).Pop()
		case isa.SpecNode:
			return isa.W(uint64(c.Index))
		case isa.SpecThr:
			return isa.W(uint64(vt))
		case isa.SpecCyc:
			return isa.W(uint64(c.Cycle))
		}
	}
	return isa.Word{}
}

// writeDst schedules a destination write: local registers after the op's
// latency, cross-cluster transfers through the C-Switch, GCC broadcasts to
// every replica.
func (c *Chip) writeDst(now int64, vt, cl int, op *isa.Op, lat int64, w isa.Word) {
	dst := op.Dst
	if dst.IsZero() {
		return
	}
	if dst.Class == isa.RGCC {
		c.scheduleGCC(now+c.Cfg.GCCLat, int(dst.Index), w)
		return
	}
	if dst.Cluster != isa.ClusterSelf && int(dst.Cluster) != cl {
		// Inter-cluster transfer: consume a C-Switch port; the receiving
		// register becomes full when the datum arrives (Section 3.1).
		c.cswitchUsed++
		local := dst
		local.Cluster = isa.ClusterSelf
		c.schedule(now+c.Cfg.XferLat, vt, int(dst.Cluster), local, w)
		return
	}
	th := c.Clusters[cl].Threads[vt]
	if lat <= 0 {
		th.File(dst.Class).Set(int(dst.Index), w)
		return
	}
	th.File(dst.Class).MarkEmpty(int(dst.Index))
	c.schedule(now+lat, vt, cl, dst, w)
}

// issue executes all operations of an instruction. Operations issue
// together; results complete out of order according to their latencies.
func (c *Chip) issue(now int64, vt, cl int, th *cluster.HThread, in *isa.Inst) {
	c.InstsIssued++
	th.Issued++
	nextPC := th.PC + 1
	for _, op := range in.Ops() {
		c.OpsIssued++
		th.OpsIssued++
		if op.Code.IsPrivileged() && !th.Privileged {
			c.protFault(vt, cl, th, fmt.Sprintf("privileged op %s in user thread", op.Code))
			return
		}
		if pc, branched := c.execute(now, vt, cl, th, op); branched {
			nextPC = pc
		}
		if th.Status != cluster.ThreadRunning {
			return // HALT or synchronous fault inside execute
		}
	}
	th.PC = nextPC
}

// protFault raises a synchronous exception: the faulting thread stops and a
// record is queued for the exception V-Thread (Section 3.3: protection
// violations "stall all user H-Threads in the affected cluster, and are
// handled synchronously"; we stop the offender and queue the record).
func (c *Chip) protFault(vt, cl int, th *cluster.HThread, msg string) {
	th.Fault(msg)
	c.excq.PushWords([]isa.Word{
		isa.W(uint64(vt)),
		isa.W(uint64(cl)),
		isa.W(uint64(th.PC)),
	})
	if c.Trace != nil {
		c.trace(trace.Event{Kind: trace.ProtFault, Arg: c.traceBuf.AddText(msg)})
	}
}

// readRecord assembles an event record from 4 consecutive integer
// registers (the operand convention of TLBW and MRETRY).
func (c *Chip) readRecord(th *cluster.HThread, base int) recordWords {
	var ws recordWords
	for i := range ws.w {
		ws.w[i] = th.Ints.Get(base + i)
	}
	ws.VAddr = ws.w[1].Bits
	return ws
}

type recordWords struct {
	w     [4]isa.Word
	VAddr uint64
}

// effAddr computes and protection-checks a memory operation's effective
// address. User threads must present a tagged guarded pointer with
// sufficient permissions; privileged threads may use raw addresses
// (physical for LDP/STP, virtual otherwise).
func (c *Chip) effAddr(th *cluster.HThread, op *isa.Op) (addr uint64, write bool, err error) {
	write = op.Code == isa.ST || op.Code == isa.STSY || op.Code == isa.STP
	base := th.Ints.Get(int(op.Src1.Index))
	if op.Code == isa.LDP || op.Code == isa.STP {
		return base.Bits + uint64(op.Imm), write, nil
	}
	if th.Privileged {
		if base.Ptr {
			return ptrAddr(base, op.Imm)
		}
		return base.Bits + uint64(op.Imm), write, nil
	}
	if !base.Ptr {
		return 0, write, fmt.Errorf("memory access through untagged word")
	}
	return ptrAddrChecked(base, op.Imm, write)
}

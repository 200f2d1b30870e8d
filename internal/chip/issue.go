package chip

// The synchronization pipeline stage (Section 3.2): each cycle, each
// cluster holds the next instruction from each of the six resident
// V-Threads and issues one whose operands are all present and whose
// resources are all available. A stalled H-Thread consumes nothing but its
// thread slot; V-Threads interleave with zero switch cost.

import (
	"fmt"
	"math/bits"

	"repro/internal/cluster"
	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// issueCluster selects and issues at most one instruction on cluster cl,
// reporting whether one issued. Ready V-Threads are served round-robin
// across all six slots, so event handlers and user threads share the
// cluster fairly ("Multiple V-Threads may be interleaved with zero delay",
// Section 3.2; the paper specifies no fixed priority among ready threads).
// Threads that stall are recorded in idleStalled so SkipCycles can replay
// the scan's stat effects over fast-forwarded idle cycles.
//
// Only the running slots (cc.Live) are visited, in rotation order: the
// slots after LastIssued, then the slots up to and including it. A slot
// outside the mask has no instruction to offer, so skipping it changes
// nothing the scan records.
//
// A slot whose instruction failed the ready check on an empty source
// operand is parked on that operand (see park). The scan first unparks
// the slots whose operand has filled, then visits the unparked ones; a
// slot still parked would have failed its visit, so it is charged the
// stall its visit would have recorded — when the rotation passes it on
// the way to the issuing slot, or on every cycle the cluster issues
// nothing. Between the start of the scan and the issue only side-effect
// free ready checks run, so testing the operand up front is testing it
// at the slot's turn.
func (c *Chip) issueCluster(now int64, cl int) bool {
	cc := c.Clusters[cl]
	for set := cc.Parked; set != 0; set &= set - 1 {
		vt := bits.TrailingZeros8(set)
		q := cc.WaitQ[vt]
		if q != nil && q.Len() > 0 || q == nil && c.srcReady(vt, cl, cc.Threads[vt], cc.Wait[vt]) {
			cc.Parked &^= 1 << vt
		}
	}
	parked := cc.Parked
	upTo := uint8(1)<<(cc.LastIssued+1) - 1
	for _, set := range [2]uint8{cc.Live &^ upTo &^ parked, cc.Live & upTo &^ parked} {
		for ; set != 0; set &= set - 1 {
			vt := bits.TrailingZeros8(set)
			th := cc.Threads[vt]
			in := th.Current()
			if in == nil {
				continue
			}
			if !c.ready(now, vt, cl, th, in) {
				th.StallCycles++
				c.idleStalled = append(c.idleStalled, th)
				c.park(cc, vt, cl, th, in)
				continue
			}
			// The rotation reached vt through the slots after
			// LastIssued and, if vt is not among them, those before vt.
			passed := ^upTo & (uint8(1)<<vt - 1)
			if vt <= cc.LastIssued {
				passed = ^upTo | (uint8(1)<<vt - 1)
			}
			for p := parked & passed; p != 0; p &= p - 1 {
				cc.Threads[bits.TrailingZeros8(p)].StallCycles++
			}
			c.issue(now, vt, cl, th, in)
			cc.LastIssued = vt
			return true
		}
	}
	for ; parked != 0; parked &= parked - 1 {
		th := cc.Threads[bits.TrailingZeros8(parked)]
		th.StallCycles++
		c.idleStalled = append(c.idleStalled, th)
	}
	return false
}

// park records the first source operand of in, in IOp, MOp, FOp and Src1,
// Src2 order, that is not ready, and parks slot vt on it: no ready check
// of in can succeed before that operand fills. A net/evq operand is
// resolved to its queue here, since queueFor is fixed per chip. An
// instruction with a SEND never parks, because a throttled SEND's ready
// check counts SendsBlocked every time it runs.
func (c *Chip) park(cc *cluster.Cluster, vt, cl int, th *cluster.HThread, in *isa.Inst) {
	ops := [3]*isa.Op{in.IOp, in.MOp, in.FOp}
	for _, op := range ops {
		if op != nil && (op.Code == isa.SEND || op.Code == isa.SENDN) {
			return
		}
	}
	for _, op := range ops {
		if op == nil {
			continue
		}
		for _, r := range [2]isa.Reg{op.Src1, op.Src2} {
			if !c.srcReady(vt, cl, th, r) {
				cc.Parked |= 1 << vt
				cc.Wait[vt], cc.WaitQ[vt] = r, nil
				if r.Class == isa.RSpec {
					cc.WaitQ[vt] = c.queueFor(vt, cl, int(r.Index))
				}
				return
			}
		}
	}
}

// ready implements the scoreboard and resource checks for a whole
// instruction: all operations issue together or not at all. Most
// instructions need only scoreboard bits, tested as two masks; a Slow one
// checks op by op, in order, because a throttled SEND's check counts
// SendsBlocked only when the ops before it and its own operands are ready.
func (c *Chip) ready(now int64, vt, cl int, th *cluster.HThread, in *isa.Inst) bool {
	if !in.Need.Slow {
		return th.Ints.Has(in.Need.Int) && th.FPs.Has(in.Need.FP)
	}
	for k, op := range [3]*isa.Op{in.IOp, in.MOp, in.FOp} {
		if op != nil && !c.opReady(now, vt, cl, th, op, in.OpNeed[k]) {
			return false
		}
	}
	return true
}

// opReady checks one operation of a Slow instruction: the masks of need,
// then what they cannot express.
func (c *Chip) opReady(now int64, vt, cl int, th *cluster.HThread, op *isa.Op, need isa.Needs) bool {
	if !th.Ints.Has(need.Int) || !th.FPs.Has(need.FP) {
		return false
	}
	if !need.Slow {
		return true
	}
	// Sources outside the masks: GCC, net/evq, unknown classes.
	for _, r := range [2]isa.Reg{op.Src1, op.Src2} {
		if r.Class > isa.RFP && !c.srcReady(vt, cl, th, r) {
			return false
		}
	}
	switch op.Code {
	case isa.TLBW, isa.MRETRY:
		if !op.RecordInFile() {
			return true // issue and fault synchronously
		}
	case isa.SEND, isa.SENDN:
		if op.Code == isa.SEND && op.Pri == 0 && op.SendBodyInFile() && c.credits <= 0 {
			// Throttling: "threads attempting to execute a SEND
			// instruction will stall" when no buffer space remains.
			c.SendsBlocked++
			return false
		}
		return true
	}
	// A destination on another cluster needs a C-Switch port this cycle.
	if d := op.Dst; (d.Class == isa.RInt || d.Class == isa.RFP) && d.Cluster != isa.ClusterSelf &&
		op.Code != isa.EMPTY && c.cswitchUsed >= c.Cfg.CSwitchPorts {
		return false
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
	for _, op := range [3]*isa.Op{in.IOp, in.MOp, in.FOp} {
		if op == nil {
			continue
		}
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
	c.Clusters[cl].Live &^= 1 << vt
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

// retryable reports whether an MRETRY record names a memory request the
// memory system can take (a physical one inside SDRAM and the I/O window,
// as effAddr demands of LDP/STP) and, for a load, a register the response
// can be written to. A record a fault put in the event queue always does;
// one a program assembled in its registers may not.
func (c *Chip) retryable(r events.Record) bool {
	if r.Kind > mem.ReqWritePhys || r.Pre > isa.SyncEmpty || r.Post > isa.SyncEmpty ||
		(r.Kind == mem.ReqReadPhys || r.Kind == mem.ReqWritePhys) && !c.Mem.Physical(r.VAddr) {
		return false
	}
	if r.Kind.IsWrite() {
		return true
	}
	vt, cl, reg := isa.UnpackRegDesc(r.RegDesc)
	return regInRange(vt, cl, reg) && (reg.Class == isa.RInt || reg.Class == isa.RFP)
}

// regInRange reports whether an unpacked register descriptor indexes this
// chip's thread slots, clusters and register files (a class without a file
// is a target that takes no write).
func regInRange(vt, cl int, r isa.Reg) bool {
	return vt < isa.NumVThreads && cl < isa.NumClusters && r.Valid()
}

// effAddr computes and protection-checks a memory operation's effective
// address. User threads must present a tagged guarded pointer with
// sufficient permissions; privileged threads may use raw addresses
// (physical for LDP/STP, virtual otherwise).
func (c *Chip) effAddr(th *cluster.HThread, op *isa.Op) (addr uint64, write bool, err error) {
	write = op.Code == isa.ST || op.Code == isa.STSY || op.Code == isa.STP
	base := th.Ints.Get(int(op.Src1.Index))
	if op.Code == isa.LDP || op.Code == isa.STP {
		pa := base.Bits + uint64(op.Imm)
		if !c.Mem.Physical(pa) {
			return 0, write, fmt.Errorf("physical address %#x outside SDRAM and the I/O window", pa)
		}
		return pa, write, nil
	}
	if th.Privileged {
		if base.Ptr {
			a, err := ptrAddr(base, op.Imm)
			return a, write, err
		}
		return base.Bits + uint64(op.Imm), write, nil
	}
	if !base.Ptr {
		return 0, write, fmt.Errorf("memory access through untagged word")
	}
	return ptrAddrChecked(base, op.Imm, write)
}

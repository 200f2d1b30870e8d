// Package cluster provides the architectural state of one MAP execution
// cluster (Figure 3): the scoreboarded integer and floating-point register
// files holding all six V-Thread contexts, the replicated global
// condition-code registers, and the per-H-Thread control state (program,
// PC, run status).
//
// The issue pipeline that operates on this state lives in internal/chip;
// this package owns only the state and its invariants, mirroring how the
// paper separates the register files from the synchronization pipeline
// stage that consults their scoreboard bits (Section 3.2).
package cluster

import (
	"fmt"

	"repro/internal/events"
	"repro/internal/isa"
)

// RegFile is one scoreboarded register file bank: a value and a full/empty
// scoreboard bit per register (Section 3.1, "H-Thread Synchronization": "A
// scoreboard bit associated with the destination register is cleared
// (empty) when a multicycle operation ... issues and set (full) when the
// result is available"). The bits are one mask, bit i for register i, so
// the issue stage tests all of an instruction's operands at once (Has).
type RegFile struct {
	vals []isa.Word
	full uint32
}

// lowBits is the mask of registers 0..n-1.
func lowBits(n int) uint32 { return uint32(1)<<n - 1 }

// Full reports the scoreboard bit of register i.
func (rf *RegFile) Full(i int) bool { return rf.full>>i&1 != 0 }

// Has reports whether every register in mask is full.
func (rf *RegFile) Has(mask uint32) bool { return rf.full&mask == mask }

// Get returns the value of register i; the caller must have checked Full.
func (rf *RegFile) Get(i int) isa.Word { return rf.vals[i] }

// Set writes register i and marks it full (result writeback).
func (rf *RegFile) Set(i int, w isa.Word) {
	rf.vals[i] = w
	rf.full |= 1 << i
}

// MarkEmpty clears the scoreboard bit (issue of a multicycle op targeting
// i, or an explicit EMPTY operation preparing an inter-cluster transfer).
func (rf *RegFile) MarkEmpty(i int) { rf.full &^= 1 << i }

// Len returns the number of registers.
func (rf *RegFile) Len() int { return len(rf.vals) }

// ThreadStatus describes an H-Thread slot's lifecycle.
type ThreadStatus uint8

const (
	ThreadEmpty   ThreadStatus = iota // no program loaded
	ThreadRunning                     // eligible for issue
	ThreadHalted                      // executed HALT
	ThreadFaulted                     // synchronous exception (e.g. protection)
)

func (s ThreadStatus) String() string {
	switch s {
	case ThreadEmpty:
		return "empty"
	case ThreadRunning:
		return "running"
	case ThreadHalted:
		return "halted"
	case ThreadFaulted:
		return "faulted"
	}
	return "?"
}

// HThread is the control state of one H-Thread: the instruction sequence it
// executes on this cluster and its program counter.
type HThread struct {
	Prog       *isa.Program
	PC         int
	Status     ThreadStatus
	Privileged bool // event/exception/boot threads may use privileged ops
	FaultMsg   string

	// Ints and FPs are this context's register files.
	Ints *RegFile
	FPs  *RegFile

	// Stats.
	Issued    uint64 // instructions issued
	OpsIssued uint64 // operations issued (<= 3 per instruction)
	// StallCycles counts the issue scans that reached this running thread
	// and found its instruction not ready. A cycle on which another slot
	// of the cluster issued before the rotation reached this one is not
	// counted, so two always-ready threads alternating on a cluster both
	// read 0.
	StallCycles uint64
}

// Load installs a program and makes the thread runnable. The cluster's
// Live mask is the caller's to update (chip.LoadProgram does).
func (h *HThread) Load(p *isa.Program, privileged bool) {
	p.Prepare()
	h.Prog = p
	h.PC = 0
	h.Status = ThreadRunning
	h.Privileged = privileged
	h.FaultMsg = ""
}

// Current returns the next instruction to issue, or nil if the thread is
// not running or has run off the end of its program.
func (h *HThread) Current() *isa.Inst {
	if h.Status != ThreadRunning || h.Prog == nil || h.PC < 0 || h.PC >= len(h.Prog.Insts) {
		return nil
	}
	return &h.Prog.Insts[h.PC]
}

// Fault transitions the thread to the faulted state with a diagnostic.
// Protection violations are "detected in the first execution cycle" and
// handled synchronously (Section 3.3).
func (h *HThread) Fault(msg string) {
	h.Status = ThreadFaulted
	h.FaultMsg = msg
}

// File returns the register file for a class (integer or FP).
func (h *HThread) File(c isa.RegClass) *RegFile {
	switch c {
	case isa.RInt:
		return h.Ints
	case isa.RFP:
		return h.FPs
	}
	panic(fmt.Sprintf("cluster: no register file for class %d", c))
}

// GCCFile is a cluster's local copy of the global condition-code registers.
// Each cluster holds a physical replica; broadcasts update every replica,
// while reads and EMPTY operations act on the local copy only (Section 3.1,
// "the map global CC registers are physically replicated on each of the
// clusters").
type GCCFile struct {
	vals []isa.Word
	full uint32
}

// Full reports the local scoreboard bit.
func (g *GCCFile) Full(i int) bool { return g.full>>i&1 != 0 }

// Get reads the local copy.
func (g *GCCFile) Get(i int) isa.Word { return g.vals[i] }

// Set writes the local copy and marks it full (one leg of a broadcast).
func (g *GCCFile) Set(i int, w isa.Word) {
	g.vals[i] = w
	g.full |= 1 << i
}

// MarkEmpty empties the local copy (the EMPTY operation; each consumer
// empties its own replica, enabling the barrier protocol of Figure 6).
func (g *GCCFile) MarkEmpty(i int) { g.full &^= 1 << i }

// Cluster is the architectural state of one execution cluster: six H-Thread
// contexts (one per V-Thread slot) and the local GCC replica. The
// instruction cache of Figure 3 is modelled as an always-hit store: the
// Program attached to each H-Thread.
type Cluster struct {
	ID      int `snap:"derived,fixed at construction; decode validates against it"`
	Threads [isa.NumVThreads]*HThread
	GCC     *GCCFile

	// LastIssued is the V-Thread slot that issued most recently, the
	// rotation point for round-robin selection among ready threads.
	LastIssued int

	// Live has bit vt set while Threads[vt].Status is ThreadRunning: the
	// slots the issue scan visits and the run loop counts. The chip keeps
	// it at the only status transitions there are — program load, HALT
	// and a synchronous fault.
	Live uint8 `snap:"derived,rebuilt from the decoded thread statuses"`

	// Parked has bit vt set while slot vt's instruction waits on the
	// source operand Wait[vt], which was empty when the issue scan last
	// checked it: the scan re-tests that one operand instead of the whole
	// instruction and counts the slot's stall cycles itself
	// (chip.issueCluster). Parked is a subset of Live; program load
	// clears the slot's bit.
	Parked uint8                    `snap:"derived,zero after decode and Clone; the first Step re-parks"`
	Wait   [isa.NumVThreads]isa.Reg `snap:"derived,meaningful only under Parked"`
	// WaitQ[vt] is the hardware queue a net/evq Wait[vt] reads, resolved
	// when the slot parks, so the scan tests the queue's length directly;
	// nil for any other wait, which the scan re-tests as an operand.
	WaitQ [isa.NumVThreads]*events.Queue `snap:"derived,meaningful only under Parked"`
}

// UserSlots masks Live down to the user V-Thread slots.
const UserSlots uint8 = 1<<isa.NumUserSlots - 1

// New creates cluster id with empty thread slots. Their registers start
// full and zero, so threads start with a defined, readable register
// state; the GCC replica starts empty, so a gcc must be produced
// (broadcast) before it can be consumed.
func New(id int) *Cluster {
	c := &Cluster{ID: id, LastIssued: -1}
	c.carve()
	for _, th := range c.Threads {
		th.Ints.full, th.FPs.full = lowBits(isa.NumIntRegs), lowBits(isa.NumFPRegs)
	}
	return c
}

// Register words per thread context, and in a whole cluster.
const (
	threadWords  = isa.NumIntRegs + isa.NumFPRegs
	clusterWords = isa.NumVThreads*threadWords + isa.NumGCCRegs
)

// banks is the storage of a cluster's register files: two per thread
// slot, then the GCC replica.
type banks struct {
	files [2 * isa.NumVThreads]RegFile
	gcc   GCCFile
}

// carve gives c fresh thread slots, register files and a GCC replica
// from three allocations: the six contexts, the banks, and one block of
// every register word (which holds no pointers, so the collector never
// scans it). The contexts are an array of their own, so the slots of
// all clusters spread over the cache sets (stalled slots' counters are
// what an idle chip's SkipCycles touches). Everything starts zero: every
// register value, every scoreboard bit, every slot empty.
func (c *Cluster) carve() {
	threads := new([isa.NumVThreads]HThread)
	b := new(banks)
	words := make([]isa.Word, clusterWords)
	for i := range threads {
		th := &threads[i]
		th.Ints, th.FPs = &b.files[2*i], &b.files[2*i+1]
		w := words[i*threadWords : (i+1)*threadWords : (i+1)*threadWords]
		th.Ints.vals, th.FPs.vals = w[:isa.NumIntRegs:isa.NumIntRegs], w[isa.NumIntRegs:]
		c.Threads[i] = th
	}
	b.gcc.vals = words[isa.NumVThreads*threadWords:]
	c.GCC = &b.gcc
}

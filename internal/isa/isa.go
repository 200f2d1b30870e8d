// Package isa defines the MAP instruction set architecture of the M-Machine:
// 3-wide instructions (integer, memory, and floating-point operations),
// register name spaces (per-cluster integer and FP files, global condition
// code registers, and register-mapped special queues), and the scoreboard
// and synchronization semantics those operations obey.
//
// The definitions here are shared by the assembler (internal/asm), the
// cluster pipeline model (internal/cluster), and the software runtime
// (internal/rt). They correspond to Section 2 and Figure 3 of the paper:
// each cluster is a 64-bit, three-issue processor with two integer ALUs
// (one of which, the memory unit, interfaces to the memory system) and one
// floating-point ALU.
package isa

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Machine-wide architectural constants from the paper.
const (
	NumClusters   = 4  // execution clusters per MAP chip
	NumVThreads   = 6  // resident V-Thread slots (4 user + event + exception)
	NumUserSlots  = 4  // user V-Thread slots
	EventSlot     = 4  // V-Thread slot running asynchronous event handlers
	ExceptionSlot = 5  // V-Thread slot running synchronous exception handlers
	NumIntRegs    = 16 // integer registers per H-Thread context
	NumFPRegs     = 16 // floating-point registers per H-Thread context
	NumGCCRegs    = 8  // global condition-code registers (4 pairs)
)

// RegClass discriminates the register name spaces visible to an operation.
type RegClass uint8

const (
	RNone RegClass = iota // no register (unused operand slot)
	RInt                  // integer register i0..i15
	RFP                   // floating-point register f0..f15
	RGCC                  // global condition-code register gcc0..gcc7
	RSpec                 // register-mapped special resource (net, evq, ...)
)

// Special register indices for RSpec. Reading net or evq pops the
// corresponding hardware queue and stalls issue while the queue is empty
// (Section 3.3, Section 4.1).
const (
	SpecNet  = iota // head of this cluster's message queue
	SpecEvq         // head of this cluster's event queue
	SpecNode        // this node's physical identifier (read-only)
	SpecThr         // this V-Thread's slot number (read-only)
	SpecCyc         // low bits of the node cycle counter (read-only)
)

// ClusterSelf marks a register reference that targets the issuing cluster's
// own register file. Cross-cluster destinations (writes to another H-Thread
// in the same V-Thread, Section 3.1) carry an explicit cluster number.
const ClusterSelf int8 = -1

// Reg names one architectural register.
type Reg struct {
	Class   RegClass
	Index   uint8
	Cluster int8 // ClusterSelf, or 0..3 for a cross-cluster destination
}

// IsZero reports whether the Reg is the zero value (no register).
func (r Reg) IsZero() bool { return r.Class == RNone }

// classRegs is each class's register count; RNone and RSpec take any index.
var classRegs = [...]int{RNone: 256, RInt: NumIntRegs, RFP: NumFPRegs, RGCC: NumGCCRegs, RSpec: 256}

// Valid reports whether r names a register the machine has: a known
// class, an index inside its file, a cluster that exists. Program and
// snapshot decoders accept nothing else.
func (r Reg) Valid() bool {
	return int(r.Class) < len(classRegs) && int(r.Index) < classRegs[r.Class] &&
		(r.Cluster == ClusterSelf || r.Cluster >= 0 && r.Cluster < NumClusters)
}

// Int returns a local integer register reference.
func Int(i int) Reg { return Reg{Class: RInt, Index: uint8(i), Cluster: ClusterSelf} }

// FP returns a local floating-point register reference.
func FP(i int) Reg { return Reg{Class: RFP, Index: uint8(i), Cluster: ClusterSelf} }

// GCC returns a global condition-code register reference.
func GCC(i int) Reg { return Reg{Class: RGCC, Index: uint8(i), Cluster: ClusterSelf} }

// Spec returns a special register reference.
func Spec(i int) Reg { return Reg{Class: RSpec, Index: uint8(i), Cluster: ClusterSelf} }

// Remote returns a copy of r retargeted at another cluster's register file.
func Remote(cluster int, r Reg) Reg { r.Cluster = int8(cluster); return r }

func (r Reg) String() string {
	var s string
	switch r.Class {
	case RNone:
		return "-"
	case RInt:
		s = fmt.Sprintf("i%d", r.Index)
	case RFP:
		s = fmt.Sprintf("f%d", r.Index)
	case RGCC:
		s = fmt.Sprintf("gcc%d", r.Index)
	case RSpec:
		switch r.Index {
		case SpecNet:
			s = "net"
		case SpecEvq:
			s = "evq"
		case SpecNode:
			s = "node"
		case SpecThr:
			s = "thr"
		case SpecCyc:
			s = "cyc"
		default:
			s = fmt.Sprintf("spec%d", r.Index)
		}
	}
	if r.Cluster != ClusterSelf {
		return fmt.Sprintf("@%d.%s", r.Cluster, s)
	}
	return s
}

// Unit identifies one of the three function units in a cluster.
type Unit uint8

const (
	UnitInt Unit = iota // integer ALU
	UnitMem             // memory unit (second integer ALU + memory interface)
	UnitFP              // floating-point ALU
)

func (u Unit) String() string {
	switch u {
	case UnitInt:
		return "IU"
	case UnitMem:
		return "MU"
	case UnitFP:
		return "FU"
	}
	return "??"
}

// Opcode enumerates MAP operations.
type Opcode uint8

const (
	NOP Opcode = iota

	// Integer ALU operations (executable on the integer unit or, when that
	// slot is occupied, on the memory unit, which is also an integer ALU).
	ADD
	SUB
	MUL
	DIV
	MOD
	AND
	OR
	XOR
	SHL
	SHR // logical right shift
	SRA // arithmetic right shift
	EQ
	NE
	LT
	LE
	GT
	GE
	MOV  // move register (or special source) to register
	MOVI // move immediate to register
	EMPTY
	BR   // unconditional branch
	BRT  // branch if source is non-zero
	BRF  // branch if source is zero
	JMPR // indirect jump to the instruction index in a register (DIP dispatch)
	HALT

	// Memory unit operations.
	LD     // load word: dst <- mem[src1+imm]
	ST     // store word: mem[src1+imm] <- src2
	LDSY   // synchronizing load with pre/postcondition on the sync bit
	STSY   // synchronizing store with pre/postcondition on the sync bit
	LDP    // privileged physical load (bypasses LTLB and block status)
	STP    // privileged physical store
	LEA    // guarded-pointer arithmetic: dst <- ptr(src1) + (src2|imm)
	SETPTR // privileged: forge a guarded pointer (src1=addr, imm packs len|perms)
	SEND   // atomic user-level message send (Section 4.1)
	SENDN  // privileged node-addressed send, priority 1 (system replies)
	GPROBE // probe the GTLB: dst <- home node id for virtual address src1
	TLBW   // privileged: install the 4-word LTLB entry held in src1..src1+3
	TLBINV // privileged: invalidate the LTLB entry for virtual page src1
	BSW    // privileged: set block status bits for the block containing src1
	BSR    // privileged: read block status bits into dst
	MRETRY // privileged: re-inject the faulted memory op held in src1..src1+3
	RSTW   // privileged: write a thread register named by descriptor src1
	DIRLOG // privileged: log sharer node src2 for block src1 in the directory
	DIRCNT // privileged: dst <- number of sharers recorded for block src1

	// Floating-point unit operations (IEEE 754 double).
	FADD
	FSUB
	FMUL
	FDIV
	FNEG
	FMOV
	FEQ // FP compares write an integer or gcc destination
	FLT
	FLE
	ITOF
	FTOI

	opcodeCount
)

var opcodeNames = [...]string{
	NOP: "nop", ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", MOD: "mod",
	AND: "and", OR: "or", XOR: "xor", SHL: "shl", SHR: "shr", SRA: "sra",
	EQ: "eq", NE: "ne", LT: "lt", LE: "le", GT: "gt", GE: "ge",
	MOV: "mov", MOVI: "movi", EMPTY: "empty",
	BR: "br", BRT: "brt", BRF: "brf", JMPR: "jmpr", HALT: "halt",
	LD: "ld", ST: "st", LDSY: "ldsy", STSY: "stsy", LDP: "ldp", STP: "stp",
	LEA: "lea", SETPTR: "setptr", SEND: "send", SENDN: "sendn",
	GPROBE: "gprobe", TLBW: "tlbw", TLBINV: "tlbinv",
	BSW: "bsw", BSR: "bsr", MRETRY: "mretry", RSTW: "rstw",
	DIRLOG: "dirlog", DIRCNT: "dircnt",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv", FNEG: "fneg",
	FMOV: "fmov", FEQ: "feq", FLT: "flt", FLE: "fle", ITOF: "itof", FTOI: "ftoi",
}

func (o Opcode) String() string {
	if int(o) < len(opcodeNames) && opcodeNames[o] != "" {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// UnitOf returns the function unit class an opcode belongs to. Integer
// operations may execute on either integer ALU; memory operations only on
// the memory unit; FP operations only on the FP unit.
func (o Opcode) UnitOf() Unit {
	switch {
	case o >= LD && o <= DIRCNT:
		return UnitMem
	case o >= FADD && o <= FTOI:
		return UnitFP
	default:
		return UnitInt
	}
}

// IsIntALU reports whether the op is a plain integer-ALU op that may be
// scheduled on the memory unit's ALU as well.
func (o Opcode) IsIntALU() bool { return o >= ADD && o <= HALT || o == NOP }

// IsBranch reports whether the op changes control flow.
func (o Opcode) IsBranch() bool { return o == BR || o == BRT || o == BRF || o == JMPR }

// IsPrivileged reports whether the op may only issue from a privileged
// (system) thread: the event and exception V-Threads and boot code.
func (o Opcode) IsPrivileged() bool {
	switch o {
	case LDP, STP, SETPTR, SENDN, TLBW, TLBINV, BSW, BSR, MRETRY, RSTW, DIRLOG, DIRCNT:
		return true
	}
	return false
}

// SyncCond is the pre- or postcondition on a word's synchronization bit for
// LDSY/STSY (Section 2: "Special load and store operations may specify a
// precondition and a postcondition on the synchronization bit").
type SyncCond uint8

const (
	SyncAny   SyncCond = iota // no precondition / leave bit unchanged
	SyncFull                  // precondition: bit must be full / post: set full
	SyncEmpty                 // precondition: bit must be empty / post: set empty
)

func (c SyncCond) String() string {
	switch c {
	case SyncFull:
		return "f"
	case SyncEmpty:
		return "e"
	}
	return "a"
}

// Op is a single operation occupying one of an instruction's three slots.
type Op struct {
	Code   Opcode
	Dst    Reg
	Src1   Reg
	Src2   Reg
	Imm    int64
	HasImm bool
	Pre    SyncCond // LDSY/STSY precondition
	Post   SyncCond // LDSY/STSY postcondition
	Pri    uint8    // SEND priority (0 = user requests, 1 = system replies)
	Label  string   // symbolic branch target, resolved by the assembler
}

// SendBodyInFile reports whether a SEND's body — Imm consecutive integer
// registers from Dst — lies inside the register file.
func (o *Op) SendBodyInFile() bool {
	return o.Imm >= 0 && int64(o.Dst.Index)+o.Imm <= NumIntRegs
}

// DstWritable reports whether execution can write o's destination: no op
// writes a special register, and a load lands in a register file.
func (o *Op) DstWritable() bool {
	switch o.Code {
	case LD, LDSY, LDP:
		return o.Dst.Class == RInt || o.Dst.Class == RFP
	}
	return o.Dst.Class != RSpec
}

// RecordInFile reports whether a TLBW/MRETRY record — the 4 consecutive
// integer registers from Src1 — lies inside the register file.
func (o *Op) RecordInFile() bool {
	return o.Src1.Class == RInt && int(o.Src1.Index) <= NumIntRegs-4
}

// Needs is what the issue stage's ready check asks of an operation or an
// instruction: Int and FP mask the registers that must be full (bit i for
// register i), and Slow marks anything else to check — a source the masks
// cannot name, a cross-cluster destination, SEND credits, a TLBW/MRETRY
// record, a memory unit.
type Needs struct {
	Int, FP uint32
	Slow    bool
}

// reg adds register r to the masks, or marks n Slow if they cannot hold it.
func (n *Needs) reg(r Reg) {
	switch r.Class {
	case RNone:
	case RInt:
		n.Int |= 1 << r.Index
	case RFP:
		n.FP |= 1 << r.Index
	case RSpec:
		n.Slow = n.Slow || r.Index == SpecNet || r.Index == SpecEvq
	default:
		n.Slow = true
	}
}

// Needs summarizes what issuing o waits for: its sources, a local
// destination (the scoreboard's WAW rule), a SEND body or TLBW/MRETRY
// record inside the file, and whatever else makes it Slow.
func (o *Op) Needs() Needs {
	var n Needs
	n.reg(o.Src1)
	n.reg(o.Src2)
	switch o.Code {
	case SEND, SENDN:
		// No WAW rule: Dst names the body, which SEND only reads.
		n.Slow = true
		if o.SendBodyInFile() {
			n.Int |= (1<<o.Imm - 1) << o.Dst.Index
		}
		return n
	case TLBW, MRETRY:
		n.Slow = true
		if !o.RecordInFile() {
			return n // issues and faults
		}
		n.Int |= 0xF << o.Src1.Index
	case LD, ST, LDSY, STSY, LDP, STP:
		n.Slow = true
	case EMPTY:
		return n // EMPTY only clears its destination
	}
	if o.Dst.Class == RInt || o.Dst.Class == RFP {
		if o.Dst.Cluster != ClusterSelf {
			n.Slow = true
		} else {
			n.reg(o.Dst)
		}
	}
	return n
}

func (o *Op) String() string {
	if o == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(o.Code.String())
	if o.Code == LDSY || o.Code == STSY {
		fmt.Fprintf(&b, ".%s%s", o.Pre, o.Post)
	}
	args := make([]string, 0, 3)
	switch o.Code {
	case LD, LDSY, LDP:
		args = append(args, o.Dst.String(), memOperand(o.Src1, o.Imm))
	case ST, STSY, STP:
		args = append(args, memOperand(o.Src1, o.Imm), o.Src2.String())
	case BR:
		args = append(args, o.target())
	case BRT, BRF:
		args = append(args, o.Src1.String(), o.target())
	case MOVI:
		args = append(args, o.Dst.String(), fmt.Sprintf("#%d", o.Imm))
	case SEND, SENDN:
		args = append(args, o.Src1.String(), o.Src2.String(), o.Dst.String(), fmt.Sprintf("#%d", o.Imm))
	default:
		if !o.Dst.IsZero() {
			args = append(args, o.Dst.String())
		}
		if !o.Src1.IsZero() {
			args = append(args, o.Src1.String())
		}
		if !o.Src2.IsZero() {
			args = append(args, o.Src2.String())
		} else if o.HasImm {
			args = append(args, fmt.Sprintf("#%d", o.Imm))
		}
	}
	if len(args) > 0 {
		b.WriteByte(' ')
		b.WriteString(strings.Join(args, ", "))
	}
	return b.String()
}

func (o *Op) target() string {
	if o.Label != "" {
		return o.Label
	}
	return fmt.Sprintf("#%d", o.Imm)
}

func memOperand(base Reg, off int64) string {
	switch {
	case off > 0:
		return fmt.Sprintf("[%s+%d]", base, off)
	case off < 0:
		return fmt.Sprintf("[%s%d]", base, off)
	}
	return fmt.Sprintf("[%s]", base)
}

// Inst is one 3-wide MAP instruction: up to one integer, one memory, and
// one floating-point operation that issue together (Section 2: "All
// operations in a single instruction issue together but may complete out of
// order").
type Inst struct {
	IOp  *Op
	MOp  *Op
	FOp  *Op
	Line int // source line for diagnostics

	// Need ORs the ops' summaries, which OpNeed holds in IOp, MOp, FOp
	// order; Program.Prepare fills both.
	Need   Needs
	OpNeed [3]Needs
}

// Ops returns the populated operation slots in unit order.
func (in *Inst) Ops() []*Op {
	ops := make([]*Op, 0, 3)
	if in.IOp != nil {
		ops = append(ops, in.IOp)
	}
	if in.MOp != nil {
		ops = append(ops, in.MOp)
	}
	if in.FOp != nil {
		ops = append(ops, in.FOp)
	}
	return ops
}

// Width returns the number of populated operation slots.
func (in *Inst) Width() int {
	n := 0
	if in.IOp != nil {
		n++
	}
	if in.MOp != nil {
		n++
	}
	if in.FOp != nil {
		n++
	}
	return n
}

func (in *Inst) String() string {
	parts := make([]string, 0, 3)
	for _, op := range []*Op{in.IOp, in.MOp, in.FOp} {
		if op != nil {
			parts = append(parts, op.String())
		}
	}
	if len(parts) == 0 {
		return "nop"
	}
	return strings.Join(parts, " | ")
}

// Program is an assembled sequence of instructions for one H-Thread.
//
// Snapshots carry programs in the binary word form (EncodeProgram /
// DecodeProgram embedded in the cluster stream), not field by field:
// Name and Insts round-trip through that encoding; Labels are an
// assembler artifact and are deliberately not preserved.
type Program struct {
	Name   string         `snap:"derived,round-trips via the EncodeProgram word form"`
	Insts  []Inst         `snap:"derived,round-trips via the EncodeProgram word form"`
	Labels map[string]int `snap:"derived,assembler artifact, deliberately dropped"` // label -> instruction index

	// prepared guards the Needs summaries: machines on several goroutines
	// may load one program at once (the runtime's handlers are shared).
	prepared sync.Once `snap:"derived,summaries recomputed by Prepare"`

	// encoded caches EncodeProgram's words for every snapshot that carries
	// the program; encodedOnce fills it once, as prepared does the Needs.
	encoded     []uint64  `snap:"derived,a cache of EncodeProgram"`
	encodedOnce sync.Once `snap:"derived,guards encoded"`
}

// Encoded returns EncodeProgram(p), computed on the first call. The
// caller must not modify the words, nor p afterwards.
func (p *Program) Encoded() []uint64 {
	p.encodedOnce.Do(func() { p.encoded = EncodeProgram(p) })
	return p.encoded
}

// Prepare fills every instruction's Needs summaries, once per program,
// however many goroutines call it. A program must not change afterwards.
func (p *Program) Prepare() {
	p.prepared.Do(func() {
		for i := range p.Insts {
			in := &p.Insts[i]
			for k, op := range [3]*Op{in.IOp, in.MOp, in.FOp} {
				if op != nil {
					n := op.Needs()
					in.OpNeed[k] = n
					in.Need = Needs{in.Need.Int | n.Int, in.Need.FP | n.FP, in.Need.Slow || n.Slow}
				}
			}
		}
	})
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Insts) }

// Depth returns the static schedule depth (instruction count), the metric
// of Figure 5 and Section 3.1.
func (p *Program) Depth() int { return len(p.Insts) }

// String disassembles the program. Labels sharing an instruction index
// print in name order so the disassembly is stable run to run.
func (p *Program) String() string {
	names := make([]string, 0, len(p.Labels))
	for name := range p.Labels {
		names = append(names, name)
	}
	slices.Sort(names)
	rev := make(map[int][]string)
	for _, name := range names {
		rev[p.Labels[name]] = append(rev[p.Labels[name]], name)
	}
	var b strings.Builder
	for i := range p.Insts {
		for _, l := range rev[i] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "  %s\n", p.Insts[i].String())
	}
	return b.String()
}

// RegDesc packs a thread-register destination descriptor into a word, used
// by event records and the RSTW operation ("memory-mapped addressing of
// thread registers", Section 4.3 discussion). Layout (low to high bits):
// index[8] | class[4] | cluster[4] | vthread[4].
func RegDesc(vthread, cluster int, r Reg) uint64 {
	return uint64(r.Index) | uint64(r.Class)<<8 | uint64(cluster)<<12 | uint64(vthread)<<16
}

// UnpackRegDesc decodes a RegDesc word.
func UnpackRegDesc(w uint64) (vthread, cluster int, r Reg) {
	r = Reg{
		Class:   RegClass((w >> 8) & 0xF),
		Index:   uint8(w & 0xFF),
		Cluster: ClusterSelf,
	}
	cluster = int((w >> 12) & 0xF)
	vthread = int((w >> 16) & 0xF)
	return vthread, cluster, r
}

// Package asm implements an assembler for MAP assembly, the textual form of
// the instruction set defined in internal/isa. The software runtime's event
// and message handlers (internal/rt), the example applications, and the
// workload generators are all written in this language.
//
// Syntax overview (one 3-wide instruction per line, slots separated by '|'):
//
//	; comment                         .equ LPT_BASE 4096
//	loop:
//	    add i1, i2, i3 | ld i4, [i5+2] | fadd f1, f2, f3
//	    movi i6, #LPT_BASE
//	    eq gcc1, i1, i2               ; compare broadcast to a global CC
//	    brt gcc1, loop
//	    ldsy.fe i1, [i2]              ; sync load: pre=full, post=empty
//	    send i1, i2, i8, #3           ; SEND addr, dip, body-start, length
//	    st [i5], i6
//	    empty i3
//	    halt
//
// Registers: i0..i15, f0..f15, gcc0..gcc7, and the register-mapped specials
// net, evq, node, thr, cyc. A destination of the form @2.i5 writes cluster
// 2's register i5 through the C-Switch (cross-cluster transfer, Section 3.1).
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Error describes an assembly failure with source position.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type assembler struct {
	name   string
	equs   map[string]int64
	labels map[string]int
	// fixups records branch ops whose label operand needs resolution.
	fixups []fixup
	insts  []isa.Inst
}

type fixup struct {
	op   *isa.Op
	line int
}

// Assemble parses MAP assembly source into a program. name is used in
// diagnostics and carried on the Program.
func Assemble(name, src string) (*isa.Program, error) {
	a := &assembler{
		name:   name,
		equs:   make(map[string]int64),
		labels: make(map[string]int),
	}
	for i, raw := range strings.Split(src, "\n") {
		if err := a.line(i+1, raw); err != nil {
			return nil, err
		}
	}
	for _, f := range a.fixups {
		idx, ok := a.labels[f.op.Label]
		if !ok {
			return nil, &Error{f.line, fmt.Sprintf("undefined label %q", f.op.Label)}
		}
		f.op.Imm = int64(idx)
	}
	return &isa.Program{Name: name, Insts: a.insts, Labels: a.labels}, nil
}

// MustAssemble is Assemble for statically known-good sources (the runtime's
// handlers); it panics on error.
func MustAssemble(name, src string) *isa.Program {
	p, err := Assemble(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

func (a *assembler) line(n int, raw string) error {
	s := raw
	if i := strings.Index(s, ";"); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	if strings.HasPrefix(s, ".equ") {
		fields := strings.Fields(s)
		if len(fields) != 3 {
			return &Error{n, ".equ wants: .equ NAME value"}
		}
		v, err := a.parseInt(fields[2])
		if err != nil {
			return &Error{n, fmt.Sprintf("bad .equ value %q: %v", fields[2], err)}
		}
		a.equs[fields[1]] = v
		return nil
	}
	// Leading labels, possibly several on one line.
	for {
		i := strings.Index(s, ":")
		if i < 0 {
			break
		}
		label := strings.TrimSpace(s[:i])
		if !isIdent(label) {
			break
		}
		if _, dup := a.labels[label]; dup {
			return &Error{n, fmt.Sprintf("duplicate label %q", label)}
		}
		a.labels[label] = len(a.insts)
		s = strings.TrimSpace(s[i+1:])
	}
	if s == "" {
		return nil
	}
	inst := isa.Inst{Line: n}
	for _, slot := range strings.Split(s, "|") {
		op, err := a.parseOp(n, strings.TrimSpace(slot))
		if err != nil {
			return err
		}
		if op == nil {
			continue
		}
		if err := place(&inst, op); err != nil {
			return &Error{n, err.Error()}
		}
	}
	a.insts = append(a.insts, inst)
	return nil
}

// place assigns an op to an instruction slot. Memory ops go to the memory
// unit, FP ops to the FP unit; plain integer ops prefer the integer unit and
// fall back to the memory unit, which is also an integer ALU (Section 2).
func place(inst *isa.Inst, op *isa.Op) error {
	switch op.Code.UnitOf() {
	case isa.UnitMem:
		if inst.MOp != nil {
			return fmt.Errorf("memory unit slot already occupied")
		}
		inst.MOp = op
	case isa.UnitFP:
		if inst.FOp != nil {
			return fmt.Errorf("FP unit slot already occupied")
		}
		inst.FOp = op
	default:
		switch {
		case inst.IOp == nil:
			inst.IOp = op
		case inst.MOp == nil:
			inst.MOp = op
		default:
			return fmt.Errorf("no free integer slot")
		}
	}
	return nil
}

var mnemonics = map[string]isa.Opcode{
	"nop": isa.NOP, "add": isa.ADD, "sub": isa.SUB, "mul": isa.MUL,
	"div": isa.DIV, "mod": isa.MOD, "and": isa.AND, "or": isa.OR,
	"xor": isa.XOR, "shl": isa.SHL, "shr": isa.SHR, "sra": isa.SRA,
	"eq": isa.EQ, "ne": isa.NE, "lt": isa.LT, "le": isa.LE,
	"gt": isa.GT, "ge": isa.GE, "mov": isa.MOV, "movi": isa.MOVI,
	"empty": isa.EMPTY, "br": isa.BR, "brt": isa.BRT, "brf": isa.BRF,
	"jmpr": isa.JMPR, "halt": isa.HALT,
	"ld": isa.LD, "st": isa.ST, "ldsy": isa.LDSY, "stsy": isa.STSY,
	"ldp": isa.LDP, "stp": isa.STP, "lea": isa.LEA, "setptr": isa.SETPTR,
	"send": isa.SEND, "sendn": isa.SENDN, "gprobe": isa.GPROBE,
	"tlbw": isa.TLBW, "tlbinv": isa.TLBINV, "bsw": isa.BSW, "bsr": isa.BSR,
	"mretry": isa.MRETRY, "rstw": isa.RSTW,
	"dirlog": isa.DIRLOG, "dircnt": isa.DIRCNT,
	"fadd": isa.FADD, "fsub": isa.FSUB, "fmul": isa.FMUL, "fdiv": isa.FDIV,
	"fneg": isa.FNEG, "fmov": isa.FMOV, "feq": isa.FEQ, "flt": isa.FLT,
	"fle": isa.FLE, "itof": isa.ITOF, "ftoi": isa.FTOI,
}

func (a *assembler) parseOp(n int, s string) (*isa.Op, error) {
	if s == "" {
		return nil, nil
	}
	mn := s
	rest := ""
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		mn, rest = s[:i], strings.TrimSpace(s[i+1:])
	}
	var pre, post isa.SyncCond
	if i := strings.Index(mn, "."); i >= 0 {
		suffix := mn[i+1:]
		mn = mn[:i]
		if len(suffix) != 2 {
			return nil, &Error{n, fmt.Sprintf("bad sync suffix %q (want e.g. .fe)", suffix)}
		}
		var err error
		if pre, err = syncCond(suffix[0]); err != nil {
			return nil, &Error{n, err.Error()}
		}
		if post, err = syncCond(suffix[1]); err != nil {
			return nil, &Error{n, err.Error()}
		}
	}
	code, ok := mnemonics[strings.ToLower(mn)]
	if !ok {
		return nil, &Error{n, fmt.Sprintf("unknown mnemonic %q", mn)}
	}
	op := &isa.Op{Code: code, Pre: pre, Post: post}
	args := splitArgs(rest)
	if err := a.operands(n, op, args); err != nil {
		return nil, err
	}
	if !op.DstWritable() {
		return nil, &Error{n, fmt.Sprintf("%s cannot write %s", op.Code, op.Dst)}
	}
	return op, nil
}

func syncCond(c byte) (isa.SyncCond, error) {
	switch c {
	case 'f':
		return isa.SyncFull, nil
	case 'e':
		return isa.SyncEmpty, nil
	case 'a':
		return isa.SyncAny, nil
	}
	return 0, fmt.Errorf("bad sync condition %q (want f, e or a)", string(c))
}

func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// operands parses the operand list according to the opcode's shape.
func (a *assembler) operands(n int, op *isa.Op, args []string) error {
	need := func(k int) error {
		if len(args) != k {
			return &Error{n, fmt.Sprintf("%s wants %d operands, got %d", op.Code, k, len(args))}
		}
		return nil
	}
	switch op.Code {
	case isa.NOP, isa.HALT:
		return need(0)

	case isa.MOVI:
		if err := need(2); err != nil {
			return err
		}
		if err := a.dst(n, op, args[0]); err != nil {
			return err
		}
		return a.imm(n, op, args[1])

	case isa.MOV:
		if err := need(2); err != nil {
			return err
		}
		if err := a.dst(n, op, args[0]); err != nil {
			return err
		}
		if strings.HasPrefix(args[1], "#") {
			op.Code = isa.MOVI
			return a.imm(n, op, args[1])
		}
		return a.src(n, &op.Src1, args[1])

	case isa.EMPTY:
		if err := need(1); err != nil {
			return err
		}
		return a.dst(n, op, args[0])

	case isa.JMPR:
		if err := need(1); err != nil {
			return err
		}
		return a.src(n, &op.Src1, args[0])

	case isa.BR:
		if err := need(1); err != nil {
			return err
		}
		return a.branchTarget(n, op, args[0])

	case isa.BRT, isa.BRF:
		if err := need(2); err != nil {
			return err
		}
		if err := a.src(n, &op.Src1, args[0]); err != nil {
			return err
		}
		return a.branchTarget(n, op, args[1])

	case isa.LD, isa.LDSY, isa.LDP, isa.BSR, isa.DIRCNT:
		if err := need(2); err != nil {
			return err
		}
		if err := a.dst(n, op, args[0]); err != nil {
			return err
		}
		return a.memOperand(n, op, args[1])

	case isa.ST, isa.STSY, isa.STP:
		if err := need(2); err != nil {
			return err
		}
		if err := a.memOperand(n, op, args[0]); err != nil {
			return err
		}
		return a.src(n, &op.Src2, args[1])

	case isa.LEA:
		if err := need(3); err != nil {
			return err
		}
		if err := a.dst(n, op, args[0]); err != nil {
			return err
		}
		if err := a.src(n, &op.Src1, args[1]); err != nil {
			return err
		}
		return a.srcOrImm(n, op, args[2])

	case isa.SETPTR:
		if err := need(3); err != nil {
			return err
		}
		if err := a.dst(n, op, args[0]); err != nil {
			return err
		}
		if err := a.src(n, &op.Src1, args[1]); err != nil {
			return err
		}
		return a.imm(n, op, args[2])

	case isa.SEND, isa.SENDN:
		// send addr, dip, body-start, #len
		if err := need(4); err != nil {
			return err
		}
		if err := a.src(n, &op.Src1, args[0]); err != nil {
			return err
		}
		if err := a.src(n, &op.Src2, args[1]); err != nil {
			return err
		}
		if err := a.dst(n, op, args[2]); err != nil { // body start register
			return err
		}
		if op.Code == isa.SENDN {
			op.Pri = 1
		}
		if err := a.imm(n, op, args[3]); err != nil {
			return err
		}
		if !op.SendBodyInFile() {
			return &Error{n, fmt.Sprintf("send body of %d words from %s outside i0..i%d", op.Imm, args[2], isa.NumIntRegs-1)}
		}
		return nil

	case isa.GPROBE:
		if err := need(2); err != nil {
			return err
		}
		if err := a.dst(n, op, args[0]); err != nil {
			return err
		}
		return a.src(n, &op.Src1, args[1])

	case isa.TLBW, isa.TLBINV, isa.MRETRY:
		if err := need(1); err != nil {
			return err
		}
		if err := a.src(n, &op.Src1, args[0]); err != nil || op.Code == isa.TLBINV || op.RecordInFile() {
			return err
		}
		return &Error{n, fmt.Sprintf("%s record %s outside i0..i%d", op.Code, args[0], isa.NumIntRegs-1)}

	case isa.BSW, isa.RSTW, isa.DIRLOG:
		if err := need(2); err != nil {
			return err
		}
		if err := a.src(n, &op.Src1, args[0]); err != nil {
			return err
		}
		return a.src(n, &op.Src2, args[1])

	case isa.FNEG, isa.FMOV, isa.ITOF, isa.FTOI:
		if err := need(2); err != nil {
			return err
		}
		if err := a.dst(n, op, args[0]); err != nil {
			return err
		}
		return a.src(n, &op.Src1, args[1])

	default: // three-operand ALU shapes: dst, src1, src2|#imm
		if err := need(3); err != nil {
			return err
		}
		if err := a.dst(n, op, args[0]); err != nil {
			return err
		}
		if err := a.src(n, &op.Src1, args[1]); err != nil {
			return err
		}
		return a.srcOrImm(n, op, args[2])
	}
}

func (a *assembler) dst(n int, op *isa.Op, s string) error {
	r, err := a.reg(s)
	if err != nil {
		return &Error{n, err.Error()}
	}
	op.Dst = r
	return nil
}

func (a *assembler) src(n int, dst *isa.Reg, s string) error {
	r, err := a.reg(s)
	if err != nil {
		return &Error{n, err.Error()}
	}
	*dst = r
	return nil
}

func (a *assembler) srcOrImm(n int, op *isa.Op, s string) error {
	if strings.HasPrefix(s, "#") {
		return a.imm(n, op, s)
	}
	return a.src(n, &op.Src2, s)
}

func (a *assembler) imm(n int, op *isa.Op, s string) error {
	if !strings.HasPrefix(s, "#") {
		return &Error{n, fmt.Sprintf("expected immediate, got %q", s)}
	}
	v, err := a.parseInt(s[1:])
	if err != nil {
		return &Error{n, fmt.Sprintf("bad immediate %q: %v", s, err)}
	}
	op.Imm = v
	op.HasImm = true
	return nil
}

func (a *assembler) branchTarget(n int, op *isa.Op, s string) error {
	if strings.HasPrefix(s, "#") {
		return a.imm(n, op, s)
	}
	if !isIdent(s) {
		return &Error{n, fmt.Sprintf("bad branch target %q", s)}
	}
	op.Label = s
	op.HasImm = true
	a.fixups = append(a.fixups, fixup{op, n})
	return nil
}

// memOperand parses [reg], [reg+imm] or [reg-imm].
func (a *assembler) memOperand(n int, op *isa.Op, s string) error {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return &Error{n, fmt.Sprintf("bad memory operand %q (want [reg] or [reg+imm])", s)}
	}
	inner := s[1 : len(s)-1]
	sign := int64(1)
	regPart, offPart := inner, ""
	if i := strings.IndexAny(inner, "+-"); i > 0 {
		if inner[i] == '-' {
			sign = -1
		}
		regPart, offPart = inner[:i], inner[i+1:]
	}
	r, err := a.reg(strings.TrimSpace(regPart))
	if err != nil {
		return &Error{n, err.Error()}
	}
	op.Src1 = r
	if offPart != "" {
		v, err := a.parseInt(strings.TrimSpace(offPart))
		if err != nil {
			return &Error{n, fmt.Sprintf("bad offset in %q: %v", s, err)}
		}
		op.Imm = sign * v
	}
	return nil
}

func (a *assembler) reg(s string) (isa.Reg, error) {
	cluster := isa.ClusterSelf
	if strings.HasPrefix(s, "@") {
		dot := strings.Index(s, ".")
		if dot < 0 {
			return isa.Reg{}, fmt.Errorf("bad cross-cluster register %q (want @N.reg)", s)
		}
		c, err := strconv.Atoi(s[1:dot])
		if err != nil || c < 0 || c >= isa.NumClusters {
			return isa.Reg{}, fmt.Errorf("bad cluster in %q", s)
		}
		cluster = int8(c)
		s = s[dot+1:]
	}
	lower := strings.ToLower(s)
	switch lower {
	case "net":
		return isa.Reg{Class: isa.RSpec, Index: isa.SpecNet, Cluster: cluster}, nil
	case "evq":
		return isa.Reg{Class: isa.RSpec, Index: isa.SpecEvq, Cluster: cluster}, nil
	case "node":
		return isa.Reg{Class: isa.RSpec, Index: isa.SpecNode, Cluster: cluster}, nil
	case "thr":
		return isa.Reg{Class: isa.RSpec, Index: isa.SpecThr, Cluster: cluster}, nil
	case "cyc":
		return isa.Reg{Class: isa.RSpec, Index: isa.SpecCyc, Cluster: cluster}, nil
	}
	var class isa.RegClass
	var limit int
	var numPart string
	switch {
	case strings.HasPrefix(lower, "gcc"):
		class, limit, numPart = isa.RGCC, isa.NumGCCRegs, lower[3:]
	case strings.HasPrefix(lower, "i"):
		class, limit, numPart = isa.RInt, isa.NumIntRegs, lower[1:]
	case strings.HasPrefix(lower, "f"):
		class, limit, numPart = isa.RFP, isa.NumFPRegs, lower[1:]
	default:
		return isa.Reg{}, fmt.Errorf("bad register %q", s)
	}
	idx, err := strconv.Atoi(numPart)
	if err != nil || idx < 0 || idx >= limit {
		return isa.Reg{}, fmt.Errorf("bad register %q", s)
	}
	return isa.Reg{Class: class, Index: uint8(idx), Cluster: cluster}, nil
}

func (a *assembler) parseInt(s string) (int64, error) {
	if v, ok := a.equs[s]; ok {
		return v, nil
	}
	if isIdent(s) {
		return 0, fmt.Errorf("undefined constant %q", s)
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		// Accept full 64-bit patterns like 0xAAAAAAAAAAAAAAAA.
		if u, uerr := strconv.ParseUint(s, 0, 64); uerr == nil {
			return int64(u), nil
		}
	}
	return v, err
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

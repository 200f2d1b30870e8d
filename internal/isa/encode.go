package isa

// Binary encoding of MAP instructions. The paper's chip stores instructions
// in the per-cluster instruction cache as fixed-width words; this encoding
// defines a concrete word format so programs can be stored in simulated
// memory or on disk. Each operation packs into one 64-bit word, with an
// extension word for immediates wider than 20 bits; an instruction is a
// control word followed by its operation words.
//
// Operation word layout (low to high bits):
//
//	 0..6   opcode
//	 7      has-immediate flag
//	 8..9   sync precondition
//	10..11  sync postcondition
//	12      send priority
//	13..22  dst register (see encodeReg)
//	23..32  src1 register
//	33..42  src2 register
//	43      immediate-extension flag (immediate in the next word)
//	44..63  20-bit signed immediate when not extended
//
// Register field (10 bits): class(3) | index(4) | cluster(3), with cluster
// 7 meaning ClusterSelf.
//
// Instruction control word: bit 0/1/2 = integer/memory/FP op present,
// bits 3..31 = source line. A program is its instruction count followed by
// the instruction stream. Labels are an assembler artifact (branch targets
// are already resolved to absolute indices) and are not encoded.

import "fmt"

const (
	regClusterSelf = 7
	immBits        = 20
	immMax         = (int64(1) << (immBits - 1)) - 1
	immMin         = -(int64(1) << (immBits - 1))
)

func encodeReg(r Reg) uint64 {
	cl := uint64(regClusterSelf)
	if r.Cluster != ClusterSelf {
		cl = uint64(r.Cluster)
	}
	return uint64(r.Class)&7 | (uint64(r.Index)&0xF)<<3 | cl<<7
}

func decodeReg(w uint64) Reg {
	r := Reg{
		Class:   RegClass(w & 7),
		Index:   uint8(w >> 3 & 0xF),
		Cluster: int8(w >> 7 & 7),
	}
	if r.Cluster == regClusterSelf {
		r.Cluster = ClusterSelf
	}
	return r
}

// EncodeOp packs an operation into one or two words.
func EncodeOp(op *Op) []uint64 { return appendOp(nil, op) }

// appendOp appends op's one- or two-word encoding to out.
func appendOp(out []uint64, op *Op) []uint64 {
	w := uint64(op.Code) & 0x7F
	if op.HasImm {
		w |= 1 << 7
	}
	w |= uint64(op.Pre&3) << 8
	w |= uint64(op.Post&3) << 10
	w |= uint64(op.Pri&1) << 12
	w |= encodeReg(op.Dst) << 13
	w |= encodeReg(op.Src1) << 23
	w |= encodeReg(op.Src2) << 33
	if op.Imm >= immMin && op.Imm <= immMax {
		w |= (uint64(op.Imm) & (1<<immBits - 1)) << 44
		return append(out, w)
	}
	w |= 1 << 43
	return append(out, w, uint64(op.Imm))
}

// DecodeOp unpacks an operation, returning it and the number of words
// consumed.
func DecodeOp(ws []uint64) (*Op, int, error) {
	if len(ws) == 0 {
		return nil, 0, fmt.Errorf("isa: empty operation stream")
	}
	w := ws[0]
	op := &Op{
		Code:   Opcode(w & 0x7F),
		HasImm: w>>7&1 != 0,
		Pre:    SyncCond(w >> 8 & 3),
		Post:   SyncCond(w >> 10 & 3),
		Pri:    uint8(w >> 12 & 1),
		Dst:    decodeReg(w >> 13),
		Src1:   decodeReg(w >> 23),
		Src2:   decodeReg(w >> 33),
	}
	if op.Code >= opcodeCount {
		return nil, 0, fmt.Errorf("isa: bad opcode %d", op.Code)
	}
	if w>>43&1 != 0 {
		if len(ws) < 2 {
			return nil, 0, fmt.Errorf("isa: truncated extended immediate")
		}
		op.Imm = int64(ws[1])
		return op, 2, nil
	}
	// Sign-extend the 20-bit field.
	imm := int64(w >> 44 & (1<<immBits - 1))
	if imm > immMax {
		imm -= 1 << immBits
	}
	op.Imm = imm
	return op, 1, nil
}

// EncodeProgram serializes a program to words: count, then per instruction
// a control word and its operation words.
func EncodeProgram(p *Program) []uint64 {
	out := []uint64{uint64(len(p.Insts))}
	for i := range p.Insts {
		in := &p.Insts[i]
		ctrl := uint64(0)
		if in.IOp != nil {
			ctrl |= 1
		}
		if in.MOp != nil {
			ctrl |= 2
		}
		if in.FOp != nil {
			ctrl |= 4
		}
		ctrl |= uint64(uint32(in.Line)) << 3
		out = append(out, ctrl)
		for _, op := range []*Op{in.IOp, in.MOp, in.FOp} {
			if op != nil {
				out = appendOp(out, op)
			}
		}
	}
	return out
}

// DecodeProgram inverts EncodeProgram. Labels are not represented in the
// binary form; the returned program has an empty label table.
func DecodeProgram(name string, ws []uint64) (*Program, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("isa: empty program stream")
	}
	n := int(ws[0])
	ws = ws[1:]
	p := &Program{Name: name, Labels: map[string]int{}}
	for i := 0; i < n; i++ {
		if len(ws) == 0 {
			return nil, fmt.Errorf("isa: truncated program at instruction %d", i)
		}
		ctrl := ws[0]
		ws = ws[1:]
		in := Inst{Line: int(uint32(ctrl >> 3))}
		for slot := 0; slot < 3; slot++ {
			if ctrl>>slot&1 == 0 {
				continue
			}
			op, used, err := DecodeOp(ws)
			if err != nil {
				return nil, fmt.Errorf("isa: instruction %d: %w", i, err)
			}
			ws = ws[used:]
			switch slot {
			case 0:
				in.IOp = op
			case 1:
				in.MOp = op
			case 2:
				in.FOp = op
			}
		}
		p.Insts = append(p.Insts, in)
	}
	if len(ws) != 0 {
		return nil, fmt.Errorf("isa: %d trailing words after program", len(ws))
	}
	return p, nil
}

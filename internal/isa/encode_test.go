package isa

import (
	"math/rand"
	"testing"
)

// opEqual compares the semantic fields of two operations (Label is an
// assembler artifact resolved into Imm and is not encoded).
func opEqual(a, b *Op) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.Code == b.Code && a.Dst == b.Dst && a.Src1 == b.Src1 &&
		a.Src2 == b.Src2 && a.Imm == b.Imm && a.HasImm == b.HasImm &&
		a.Pre == b.Pre && a.Post == b.Post && a.Pri == b.Pri
}

func TestEncodeOpRoundTripBasics(t *testing.T) {
	ops := []*Op{
		{Code: ADD, Dst: Int(1), Src1: Int(2), Src2: Int(3)},
		{Code: MOVI, Dst: Int(4), Imm: -42, HasImm: true},
		{Code: MOVI, Dst: Int(4), Imm: 1 << 40, HasImm: true}, // extended imm
		{Code: MOVI, Dst: Int(4), Imm: -(1 << 40), HasImm: true},
		{Code: LDSY, Dst: Int(1), Src1: Int(2), Pre: SyncFull, Post: SyncEmpty},
		{Code: SEND, Src1: Int(1), Src2: Int(2), Dst: Int(8), Imm: 3, HasImm: true, Pri: 1},
		{Code: FADD, Dst: Remote(2, FP(5)), Src1: FP(1), Src2: FP(2)},
		{Code: EQ, Dst: GCC(3), Src1: Int(1), Src2: Int(2)},
		{Code: MOV, Dst: Int(1), Src1: Spec(SpecNet)},
		{Code: HALT},
	}
	for _, op := range ops {
		ws := EncodeOp(op)
		got, used, err := DecodeOp(ws)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if used != len(ws) {
			t.Errorf("%s: consumed %d of %d words", op, used, len(ws))
		}
		if !opEqual(got, op) {
			t.Errorf("round trip: got %+v, want %+v", got, op)
		}
	}
}

func TestEncodeOpImmediateBoundaries(t *testing.T) {
	for _, imm := range []int64{immMin, immMax, immMin - 1, immMax + 1, 0, -1} {
		op := &Op{Code: MOVI, Dst: Int(1), Imm: imm, HasImm: true}
		got, _, err := DecodeOp(EncodeOp(op))
		if err != nil {
			t.Fatalf("imm %d: %v", imm, err)
		}
		if got.Imm != imm {
			t.Errorf("imm %d round-tripped to %d", imm, got.Imm)
		}
		wantWords := 1
		if imm < immMin || imm > immMax {
			wantWords = 2
		}
		if len(EncodeOp(op)) != wantWords {
			t.Errorf("imm %d used %d words, want %d", imm, len(EncodeOp(op)), wantWords)
		}
	}
}

func randomReg(rng *rand.Rand) Reg {
	classes := []RegClass{RNone, RInt, RFP, RGCC, RSpec}
	c := classes[rng.Intn(len(classes))]
	if c == RNone {
		return Reg{}
	}
	r := Reg{Class: c, Index: uint8(rng.Intn(16)), Cluster: ClusterSelf}
	if c == RGCC {
		r.Index = uint8(rng.Intn(8))
	}
	if c == RSpec {
		r.Index = uint8(rng.Intn(5))
	}
	if rng.Intn(4) == 0 {
		r.Cluster = int8(rng.Intn(NumClusters))
	}
	return r
}

func TestEncodeOpRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		op := &Op{
			Code:   Opcode(rng.Intn(int(opcodeCount))),
			Dst:    randomReg(rng),
			Src1:   randomReg(rng),
			Src2:   randomReg(rng),
			Imm:    rng.Int63() - rng.Int63(),
			HasImm: rng.Intn(2) == 0,
			Pre:    SyncCond(rng.Intn(3)),
			Post:   SyncCond(rng.Intn(3)),
			Pri:    uint8(rng.Intn(2)),
		}
		for !op.DstWritable() { // the decoder refuses the rest
			op.Dst = randomReg(rng)
		}
		got, _, err := DecodeOp(EncodeOp(op))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if !opEqual(got, op) {
			t.Fatalf("op %d: got %+v, want %+v", i, got, op)
		}
	}
}

func TestEncodeProgramRoundTrip(t *testing.T) {
	p := &Program{
		Name: "t",
		Insts: []Inst{
			{IOp: &Op{Code: MOVI, Dst: Int(1), Imm: 7, HasImm: true}, Line: 3},
			{
				IOp:  &Op{Code: ADD, Dst: Int(2), Src1: Int(1), Src2: Int(1)},
				MOp:  &Op{Code: LD, Dst: Int(3), Src1: Int(1), Imm: 2},
				FOp:  &Op{Code: FADD, Dst: FP(1), Src1: FP(2), Src2: FP(3)},
				Line: 4,
			},
			{IOp: &Op{Code: HALT}, Line: 5},
		},
		Labels: map[string]int{},
	}
	ws := EncodeProgram(p)
	got, err := DecodeProgram("t", ws)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != p.Len() {
		t.Fatalf("lengths: %d vs %d", got.Len(), p.Len())
	}
	for i := range p.Insts {
		a, b := &p.Insts[i], &got.Insts[i]
		if !opEqual(a.IOp, b.IOp) || !opEqual(a.MOp, b.MOp) || !opEqual(a.FOp, b.FOp) {
			t.Errorf("instruction %d differs: %s vs %s", i, a, b)
		}
		if a.Line != b.Line {
			t.Errorf("instruction %d line %d vs %d", i, a.Line, b.Line)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeProgram("t", nil); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := DecodeProgram("t", []uint64{2, 1}); err == nil {
		t.Error("truncated program accepted")
	}
	if _, _, err := DecodeOp(nil); err == nil {
		t.Error("empty op stream accepted")
	}
	// Extended-immediate flag with no following word.
	w := EncodeOp(&Op{Code: MOVI, Imm: 1 << 40, HasImm: true})[0]
	if _, _, err := DecodeOp([]uint64{w}); err == nil {
		t.Error("truncated extended immediate accepted")
	}
	// Bad opcode.
	if _, _, err := DecodeOp([]uint64{0x7F}); err == nil {
		t.Error("bad opcode accepted")
	}
	// A register the machine does not have: a cluster past the four, a
	// GCC index past the eight, a class past RSpec. Execution would index
	// outside the register files with each.
	for _, r := range []Reg{Remote(4, Int(5)), GCC(9), {Class: RSpec + 2, Cluster: ClusterSelf}} {
		if _, _, err := DecodeOp(EncodeOp(&Op{Code: MOV, Dst: r, Src1: Int(2)})); err == nil {
			t.Errorf("register %d/%d/%d accepted", r.Class, r.Index, r.Cluster)
		}
	}
	// A destination execution cannot write: a special register, a load
	// into no register file.
	for _, op := range []*Op{{Code: ADD, Dst: Spec(SpecCyc), Src1: Int(1)}, {Code: LD, Dst: GCC(1), Src1: Int(1)}, {Code: LDSY, Src1: Int(1)}} {
		if _, _, err := DecodeOp(EncodeOp(op)); err == nil {
			t.Errorf("%s into %s accepted", op.Code, op.Dst)
		}
	}
	// Trailing garbage after a program.
	p := &Program{Insts: []Inst{{IOp: &Op{Code: HALT}}}, Labels: map[string]int{}}
	ws := append(EncodeProgram(p), 99)
	if _, err := DecodeProgram("t", ws); err == nil {
		t.Error("trailing words accepted")
	}
}

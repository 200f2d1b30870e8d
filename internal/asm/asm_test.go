package asm

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func mustOne(t *testing.T, src string) isa.Inst {
	t.Helper()
	p, err := Assemble("t", src)
	if err != nil {
		t.Fatalf("Assemble(%q): %v", src, err)
	}
	if len(p.Insts) != 1 {
		t.Fatalf("Assemble(%q): %d instructions, want 1", src, len(p.Insts))
	}
	return p.Insts[0]
}

func TestThreeWideInstruction(t *testing.T) {
	in := mustOne(t, "add i1, i2, i3 | ld i4, [i5+2] | fadd f1, f2, f3")
	if in.Width() != 3 {
		t.Fatalf("width = %d, want 3", in.Width())
	}
	if in.IOp.Code != isa.ADD || in.IOp.Dst != isa.Int(1) {
		t.Errorf("IOp = %v", in.IOp)
	}
	if in.MOp.Code != isa.LD || in.MOp.Src1 != isa.Int(5) || in.MOp.Imm != 2 {
		t.Errorf("MOp = %v", in.MOp)
	}
	if in.FOp.Code != isa.FADD || in.FOp.Src2 != isa.FP(3) {
		t.Errorf("FOp = %v", in.FOp)
	}
}

func TestIntOpFallsBackToMemoryUnit(t *testing.T) {
	in := mustOne(t, "add i1, i2, i3 | sub i4, i5, i6")
	if in.IOp == nil || in.MOp == nil {
		t.Fatalf("expected both integer slots used: %v", in.String())
	}
	if in.MOp.Code != isa.SUB {
		t.Errorf("MOp = %v, want sub", in.MOp)
	}
}

func TestThreeIntOpsRejected(t *testing.T) {
	_, err := Assemble("t", "add i1,i1,i1 | add i2,i2,i2 | add i3,i3,i3")
	if err == nil {
		t.Fatal("expected error for three integer ops")
	}
}

func TestTwoMemOpsRejected(t *testing.T) {
	_, err := Assemble("t", "ld i1,[i2] | st [i3], i4")
	if err == nil {
		t.Fatal("expected error for two memory ops")
	}
}

func TestLabelsAndBranches(t *testing.T) {
	p, err := Assemble("t", `
top:
    movi i1, #0
loop:
    add i1, i1, #1
    lt  gcc1, i1, i2
    brt gcc1, loop
    br  top
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["top"] != 0 || p.Labels["loop"] != 1 {
		t.Fatalf("labels = %v", p.Labels)
	}
	brt := p.Insts[3].IOp
	if brt.Code != isa.BRT || brt.Imm != 1 {
		t.Errorf("brt = %+v, want target 1", brt)
	}
	br := p.Insts[4].IOp
	if br.Code != isa.BR || br.Imm != 0 {
		t.Errorf("br = %+v, want target 0", br)
	}
}

func TestUndefinedLabel(t *testing.T) {
	_, err := Assemble("t", "br nowhere")
	if err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Fatalf("err = %v, want undefined label", err)
	}
}

func TestDuplicateLabel(t *testing.T) {
	_, err := Assemble("t", "x: nop\nx: nop")
	if err == nil || !strings.Contains(err.Error(), "duplicate label") {
		t.Fatalf("err = %v, want duplicate label", err)
	}
}

func TestEqu(t *testing.T) {
	p, err := Assemble("t", `
.equ BASE 0x100
.equ COUNT 8
    movi i1, #BASE
    add i2, i1, #COUNT
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].IOp.Imm != 0x100 {
		t.Errorf("movi imm = %d, want 256", p.Insts[0].IOp.Imm)
	}
	if p.Insts[1].IOp.Imm != 8 {
		t.Errorf("add imm = %d, want 8", p.Insts[1].IOp.Imm)
	}
}

func TestUndefinedConstant(t *testing.T) {
	_, err := Assemble("t", "movi i1, #NOPE")
	if err == nil || !strings.Contains(err.Error(), "undefined constant") {
		t.Fatalf("err = %v, want undefined constant", err)
	}
}

func TestSyncSuffix(t *testing.T) {
	in := mustOne(t, "ldsy.fe i1, [i2]")
	if in.MOp.Pre != isa.SyncFull || in.MOp.Post != isa.SyncEmpty {
		t.Errorf("sync conds = %v/%v, want f/e", in.MOp.Pre, in.MOp.Post)
	}
	in = mustOne(t, "stsy.ef [i1], i2")
	if in.MOp.Pre != isa.SyncEmpty || in.MOp.Post != isa.SyncFull {
		t.Errorf("sync conds = %v/%v, want e/f", in.MOp.Pre, in.MOp.Post)
	}
}

func TestCrossClusterDestination(t *testing.T) {
	in := mustOne(t, "add @1.i5, i2, i3")
	if in.IOp.Dst.Cluster != 1 || in.IOp.Dst.Index != 5 {
		t.Errorf("dst = %v, want @1.i5", in.IOp.Dst)
	}
}

func TestSpecialRegisters(t *testing.T) {
	in := mustOne(t, "mov i1, net")
	if in.IOp.Src1 != isa.Spec(isa.SpecNet) {
		t.Errorf("src = %v, want net", in.IOp.Src1)
	}
	in = mustOne(t, "mov i1, evq")
	if in.IOp.Src1 != isa.Spec(isa.SpecEvq) {
		t.Errorf("src = %v, want evq", in.IOp.Src1)
	}
	in = mustOne(t, "mov i1, node")
	if in.IOp.Src1 != isa.Spec(isa.SpecNode) {
		t.Errorf("src = %v, want node", in.IOp.Src1)
	}
}

func TestMovImmediateBecomesMOVI(t *testing.T) {
	in := mustOne(t, "mov i1, #42")
	if in.IOp.Code != isa.MOVI || in.IOp.Imm != 42 {
		t.Errorf("op = %v, want movi #42", in.IOp)
	}
}

func TestSend(t *testing.T) {
	in := mustOne(t, "send i1, i2, i8, #3")
	op := in.MOp
	if op.Code != isa.SEND || op.Src1 != isa.Int(1) || op.Src2 != isa.Int(2) ||
		op.Dst != isa.Int(8) || op.Imm != 3 {
		t.Errorf("send = %+v", op)
	}
	if op.Pri != 0 {
		t.Errorf("send pri = %d, want 0", op.Pri)
	}
	in = mustOne(t, "sendn i1, i2, i8, #2")
	if in.MOp.Pri != 1 {
		t.Errorf("sendn pri = %d, want 1", in.MOp.Pri)
	}
}

// TestSendBodyOutsideRegisterFile: a SEND body is its length's worth of
// consecutive integer registers from the body start, so a negative length
// or one running past i15 is a positioned assembly error; i8 plus 8 words
// (the block write-back's body) is the largest that fits.
func TestSendBodyOutsideRegisterFile(t *testing.T) {
	for _, src := range []string{"send i1, i2, i8, #-1", "send i1, i2, i8, #100", "sendn i1, i2, i8, #9", "send i1, i2, i0, #17"} {
		_, err := Assemble("t", "nop\n"+src)
		if err == nil || !strings.Contains(err.Error(), "line 2: send body") {
			t.Errorf("Assemble(%q) = %v, want a line 2 send body error", src, err)
		}
	}
	for _, src := range []string{"send i1, i2, i8, #8", "sendn i1, i2, i0, #16", "send i1, i2, i15, #0"} {
		mustOne(t, src)
	}
}

// TestRecordOutsideRegisterFile: a TLBW/MRETRY record is four consecutive
// integer registers from its operand, so an FP, GCC or special operand, or
// a base past i12, is a positioned assembly error.
func TestRecordOutsideRegisterFile(t *testing.T) {
	for _, src := range []string{"mretry i14", "tlbw i13", "tlbw f2", "mretry gcc1", "tlbw net"} {
		_, err := Assemble("t", "nop\n"+src)
		if err == nil || !strings.Contains(err.Error(), "line 2: "+strings.Fields(src)[0]+" record") {
			t.Errorf("Assemble(%q) = %v, want a line 2 record error", src, err)
		}
	}
	for _, src := range []string{"tlbw i12", "mretry i0", "tlbinv i15", "tlbinv f2"} {
		mustOne(t, src)
	}
}

// TestUnwritableDestination: no operation writes a special register and a
// load lands only in a register file, so either destination is a
// positioned assembly error — the engine used to crash on both.
func TestUnwritableDestination(t *testing.T) {
	for _, src := range []string{"add cyc, i1, i1", "mov net, i2", "ld gcc1, [i1]", "ldsy.fe node, [i1]", "ldp @2.evq, [i1]"} {
		_, err := Assemble("t", "nop\n"+src)
		if err == nil || !strings.Contains(err.Error(), "line 2: ") || !strings.Contains(err.Error(), "cannot write") {
			t.Errorf("Assemble(%q) = %v, want a line 2 destination error", src, err)
		}
	}
	for _, src := range []string{"ld f3, [i1]", "ldp @2.i4, [i1]", "eq gcc1, i1, i2", "mov i1, cyc"} {
		mustOne(t, src)
	}
}

func TestStoreOperandOrder(t *testing.T) {
	in := mustOne(t, "st [i5-3], i6")
	op := in.MOp
	if op.Src1 != isa.Int(5) || op.Imm != -3 || op.Src2 != isa.Int(6) {
		t.Errorf("st = %+v", op)
	}
}

func TestGCCRegisters(t *testing.T) {
	in := mustOne(t, "eq gcc1, i1, i2")
	if in.IOp.Dst != isa.GCC(1) {
		t.Errorf("dst = %v, want gcc1", in.IOp.Dst)
	}
	in = mustOne(t, "empty gcc3")
	if in.IOp.Code != isa.EMPTY || in.IOp.Dst != isa.GCC(3) {
		t.Errorf("empty = %v", in.IOp)
	}
}

func TestBadRegister(t *testing.T) {
	for _, src := range []string{"add i16, i1, i2", "add g1, i1, i2", "mov f99, f1", "add gcc9, i1, i2"} {
		if _, err := Assemble("t", src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want register error", src)
		}
	}
}

func TestBadOperandCount(t *testing.T) {
	for _, src := range []string{"add i1, i2", "ld i1", "send i1, i2, i3", "halt i1"} {
		if _, err := Assemble("t", src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want operand error", src)
		}
	}
}

func TestComments(t *testing.T) {
	p, err := Assemble("t", `
; full-line comment
    nop ; trailing
    nop // c++ style
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != 2 {
		t.Fatalf("got %d instructions, want 2", len(p.Insts))
	}
}

func TestDisassemblyRoundTrip(t *testing.T) {
	src := `
start:
    movi i1, #7 | ld i2, [i3+1] | fadd f1, f2, f3
    eq gcc1, i1, i2
    brt gcc1, start
    st [i2], i1
    halt
`
	p1, err := Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Assemble("t2", p1.String())
	if err != nil {
		t.Fatalf("reassembling disassembly: %v\n%s", err, p1.String())
	}
	if len(p1.Insts) != len(p2.Insts) {
		t.Fatalf("lengths differ: %d vs %d", len(p1.Insts), len(p2.Insts))
	}
	for i := range p1.Insts {
		if p1.Insts[i].String() != p2.Insts[i].String() {
			t.Errorf("inst %d: %q vs %q", i, p1.Insts[i].String(), p2.Insts[i].String())
		}
	}
}

func TestSetptrAndLea(t *testing.T) {
	in := mustOne(t, "setptr i1, i2, #0x93")
	if in.MOp.Code != isa.SETPTR || in.MOp.Imm != 0x93 {
		t.Errorf("setptr = %v", in.MOp)
	}
	in = mustOne(t, "lea i1, i2, #4")
	if in.MOp.Code != isa.LEA || !in.MOp.HasImm || in.MOp.Imm != 4 {
		t.Errorf("lea = %v", in.MOp)
	}
	in = mustOne(t, "lea i1, i2, i3")
	if in.MOp.HasImm || in.MOp.Src2 != isa.Int(3) {
		t.Errorf("lea reg form = %v", in.MOp)
	}
}

func TestDepthMetric(t *testing.T) {
	p, err := Assemble("t", "nop\nnop\nnop")
	if err != nil {
		t.Fatal(err)
	}
	if p.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", p.Depth())
	}
}

func TestEquInMemoryOffset(t *testing.T) {
	p, err := Assemble("t", `
.equ OFF 7
    ld i1, [i2+OFF]
    st [i2-OFF], i1
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].MOp.Imm != 7 {
		t.Errorf("load offset = %d, want 7", p.Insts[0].MOp.Imm)
	}
	if p.Insts[1].MOp.Imm != -7 {
		t.Errorf("store offset = %d, want -7", p.Insts[1].MOp.Imm)
	}
}

func TestNegativeAndHexImmediates(t *testing.T) {
	p, err := Assemble("t", "movi i1, #-42\nmovi i2, #0x1F\nmovi i3, #0xFFFFFFFFFFFFFFFF")
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].IOp.Imm != -42 {
		t.Errorf("imm = %d", p.Insts[0].IOp.Imm)
	}
	if p.Insts[1].IOp.Imm != 31 {
		t.Errorf("hex imm = %d", p.Insts[1].IOp.Imm)
	}
	if uint64(p.Insts[2].IOp.Imm) != ^uint64(0) {
		t.Errorf("64-bit imm = %#x", uint64(p.Insts[2].IOp.Imm))
	}
}

func TestBadSyncSuffixRejected(t *testing.T) {
	for _, src := range []string{"ldsy.x i1, [i2]", "ldsy.fef i1, [i2]", "ldsy.zf i1, [i2]"} {
		if _, err := Assemble("t", src); err == nil {
			t.Errorf("Assemble(%q) succeeded", src)
		}
	}
}

func TestMultipleLabelsSameInstruction(t *testing.T) {
	p, err := Assemble("t", "a: b: nop\nbr a\nbr b")
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["a"] != 0 || p.Labels["b"] != 0 {
		t.Errorf("labels = %v", p.Labels)
	}
}

func TestBranchToNumericTarget(t *testing.T) {
	p, err := Assemble("t", "nop\nbr #0")
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[1].IOp.Imm != 0 {
		t.Errorf("numeric target = %d", p.Insts[1].IOp.Imm)
	}
}

func TestMustAssemblePanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble should panic on bad source")
		}
	}()
	MustAssemble("t", "bogus i1")
}

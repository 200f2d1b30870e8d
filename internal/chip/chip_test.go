package chip_test

import (
	"math"
	"testing"

	"repro/internal/asm"
	"repro/internal/chip"
	"repro/internal/cluster"
	"repro/internal/gtlb"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
)

// newChip builds a single standalone chip on a 2x1x1 mesh with a GDT
// mapping the first pages to node 0.
func newChip(t *testing.T) *chip.Chip {
	t.Helper()
	cfg := chip.DefaultConfig()
	net := noc.New(noc.Coord{X: 2, Y: 1, Z: 1}, cfg.Net)
	gdt := &gtlb.Table{}
	if err := gdt.Add(gtlb.Entry{
		VirtPage: 0, GroupPages: 8, Start: gtlb.NodeID{}, PagesPerNode: 8,
	}); err != nil {
		t.Fatal(err)
	}
	return chip.New(cfg, noc.Coord{}, 0, net, gdt)
}

func load(t *testing.T, c *chip.Chip, vt, cl int, src string, priv bool) {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	c.LoadProgram(vt, cl, p, priv)
}

func stepUntilHalt(t *testing.T, c *chip.Chip, vt, cl int, max int64) {
	t.Helper()
	for i := int64(0); i < max; i++ {
		if c.Thread(vt, cl).Status == cluster.ThreadHalted {
			// Drain pending writebacks.
			for j := 0; j < 16; j++ {
				c.Step(c.Cycle)
			}
			return
		}
		c.Step(c.Cycle)
	}
	th := c.Thread(vt, cl)
	t.Fatalf("thread (%d,%d) did not halt: status=%v pc=%d fault=%q",
		vt, cl, th.Status, th.PC, th.FaultMsg)
}

func ireg(c *chip.Chip, vt, cl, i int) uint64 { return c.Thread(vt, cl).Ints.Get(i).Bits }

func TestIntegerALUSemantics(t *testing.T) {
	c := newChip(t)
	load(t, c, 0, 0, `
    movi i1, #-12
    movi i2, #5
    add  i3, i1, i2
    sub  i4, i1, i2
    mul  i5, i1, i2
    div  i6, i1, i2
    mod  i7, i1, i2
    and  i8, i1, i2
    xor  i9, i1, i2
    shl  i10, i2, #3
    sra  i11, i1, #2
    shr  i12, i2, #1
    lt   i13, i1, i2
    ge   i14, i1, i2
    ne   i15, i1, i2
    halt
`, true)
	stepUntilHalt(t, c, 0, 0, 200)
	var m12 = uint64(0xFFFFFFFFFFFFFFF4) // -12 two's complement
	want := map[int]int64{
		3: -7, 4: -17, 5: -60, 6: -2, 7: -2,
		8: int64(m12 & 5), 9: int64(m12 ^ 5),
		10: 40, 11: -3, 12: 2, 13: 1, 14: 0, 15: 1,
	}
	for reg, w := range want {
		if got := int64(ireg(c, 0, 0, reg)); got != w {
			t.Errorf("i%d = %d, want %d", reg, got, w)
		}
	}
}

func TestFPSemantics(t *testing.T) {
	c := newChip(t)
	load(t, c, 0, 0, `
    movi i1, #3
    movi i2, #4
    itof f1, i1
    itof f2, i2
    fadd f3, f1, f2
    fsub f4, f1, f2
    fmul f5, f1, f2
    fdiv f6, f2, f1
    fneg f7, f1
    flt  i3, f1, f2
    fle  i4, f2, f1
    feq  i5, f1, f1
    ftoi i6, f5
    fmov f8, f5
    halt
`, true)
	stepUntilHalt(t, c, 0, 0, 200)
	f := func(i int) float64 { return math.Float64frombits(c.Thread(0, 0).FPs.Get(i).Bits) }
	if f(3) != 7 || f(4) != -1 || f(5) != 12 || f(7) != -3 {
		t.Errorf("fp: f3=%v f4=%v f5=%v f7=%v", f(3), f(4), f(5), f(7))
	}
	if math.Abs(f(6)-4.0/3.0) > 1e-12 {
		t.Errorf("fdiv = %v", f(6))
	}
	if ireg(c, 0, 0, 3) != 1 || ireg(c, 0, 0, 4) != 0 || ireg(c, 0, 0, 5) != 1 {
		t.Error("fp compares wrong")
	}
	if ireg(c, 0, 0, 6) != 12 {
		t.Errorf("ftoi = %d", ireg(c, 0, 0, 6))
	}
	if f(8) != 12 {
		t.Errorf("fmov = %v", f(8))
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	c := newChip(t)
	load(t, c, 0, 0, "movi i1, #1\nmovi i2, #0\ndiv i3, i1, i2\nhalt", true)
	for i := 0; i < 50; i++ {
		c.Step(c.Cycle)
	}
	if c.Thread(0, 0).Status != cluster.ThreadFaulted {
		t.Error("divide by zero should fault the thread")
	}
	if c.ExcQueue().Empty() {
		t.Error("exception record missing")
	}
}

func TestFPLatencyLongerThanInt(t *testing.T) {
	c := newChip(t)
	// Dependent chains: int chain completes back-to-back; FP chain pays
	// FPLat per link.
	load(t, c, 0, 0, `
    movi i1, #1
    itof f1, i1
    mov  i8, cyc
    fadd f2, f1, f1
    fadd f3, f2, f2
    mov  i9, cyc
    add  i2, i1, i1
    add  i3, i2, i2
    mov  i10, cyc
    halt
`, true)
	stepUntilHalt(t, c, 0, 0, 200)
	fpChain := int64(ireg(c, 0, 0, 9) - ireg(c, 0, 0, 8))
	intChain := int64(ireg(c, 0, 0, 10) - ireg(c, 0, 0, 9))
	if fpChain <= intChain {
		t.Errorf("fp chain (%d cycles) not slower than int chain (%d)", fpChain, intChain)
	}
}

func TestPerClusterIssueIsOnePerCycle(t *testing.T) {
	c := newChip(t)
	// A straight-line 3-wide program: N instructions take ~N cycles.
	load(t, c, 0, 0, `
    movi i1, #1 | movi f1, #0
    add i2, i1, i1 | movi i3, #7
    add i4, i2, i2 | movi i5, #9
    halt
`, true)
	start := c.Cycle
	stepUntilHalt(t, c, 0, 0, 100)
	_ = start
	if got := c.Thread(0, 0).Issued; got != 4 {
		t.Errorf("issued %d instructions, want 4", got)
	}
	if got := c.Thread(0, 0).OpsIssued; got != 7 {
		t.Errorf("issued %d ops, want 7", got)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	c := newChip(t)
	src := `
    movi i1, #0
loop:
    add i1, i1, #1
    br loop
`
	load(t, c, 0, 0, src, true)
	load(t, c, 1, 0, src, true)
	load(t, c, 2, 0, src, true)
	for i := 0; i < 300; i++ {
		c.Step(c.Cycle)
	}
	a, b, d := c.Thread(0, 0).Issued, c.Thread(1, 0).Issued, c.Thread(2, 0).Issued
	if a == 0 || b == 0 || d == 0 {
		t.Fatalf("starvation: %d/%d/%d", a, b, d)
	}
	maxv, minv := a, a
	for _, v := range []uint64{b, d} {
		if v > maxv {
			maxv = v
		}
		if v < minv {
			minv = v
		}
	}
	if maxv-minv > 2 {
		t.Errorf("unfair interleaving: %d/%d/%d", a, b, d)
	}
}

// TestStallCyclesCountsScansThatFoundNotReady pins what HThread.StallCycles
// counts: the issue scans that reached the thread and found it not ready,
// not the cycles it was resident without issuing. On cluster 0, slots 0 and
// 1 are always ready and alternate, so neither is ever reached while not
// ready; slot 2 waits on a gcc nothing produces and is reached only on the
// cycles the rotation passes it on the way from slot 1 to slot 0. The same
// waiting thread alone on cluster 1 is reached every cycle.
func TestStallCyclesCountsScansThatFoundNotReady(t *testing.T) {
	c := newChip(t)
	spin := "loop:\n    add i1, i1, #1\n    br loop\n"
	wait := "    mov i5, gcc3\n    halt\n"
	load(t, c, 0, 0, spin, true)
	load(t, c, 1, 0, spin, true)
	load(t, c, 2, 0, wait, true)
	load(t, c, 2, 1, wait, true)
	for i := 0; i < 100; i++ {
		c.Step(c.Cycle)
	}
	for _, want := range []struct {
		vt, cl         int
		issued, stalls uint64
	}{
		{0, 0, 50, 0},
		{1, 0, 50, 0},
		{2, 0, 0, 49}, // cycles 2, 4, ..., 98
		{2, 1, 0, 100},
	} {
		th := c.Thread(want.vt, want.cl)
		if th.Issued != want.issued || th.StallCycles != want.stalls {
			t.Errorf("slot %d cluster %d: issued %d, stall cycles %d; want %d, %d",
				want.vt, want.cl, th.Issued, th.StallCycles, want.issued, want.stalls)
		}
	}
}

func TestClustersIssueInParallel(t *testing.T) {
	c := newChip(t)
	src := `
    movi i1, #0
    movi i2, #50
loop:
    add i1, i1, #1
    lt  i3, i1, i2
    brt i3, loop
    halt
`
	for cl := 0; cl < isa.NumClusters; cl++ {
		load(t, c, 0, cl, src, true)
	}
	for i := 0; i < 400; i++ {
		c.Step(c.Cycle)
	}
	// All four clusters run the same program concurrently: total duration
	// must be ~the single-cluster duration, not 4x.
	for cl := 0; cl < isa.NumClusters; cl++ {
		if c.Thread(0, cl).Status != cluster.ThreadHalted {
			t.Errorf("cluster %d did not finish", cl)
		}
	}
}

func TestGCCBroadcastReachesAllClusters(t *testing.T) {
	c := newChip(t)
	load(t, c, 0, 0, `
    movi i1, #1
    eq gcc2, i1, i1
    halt
`, true)
	waiter := `
    mov i5, gcc2
    halt
`
	for cl := 1; cl < isa.NumClusters; cl++ {
		load(t, c, 0, cl, waiter, true)
	}
	for i := 0; i < 100; i++ {
		c.Step(c.Cycle)
	}
	for cl := 1; cl < isa.NumClusters; cl++ {
		if ireg(c, 0, cl, 5) != 1 {
			t.Errorf("cluster %d gcc copy = %d, want 1", cl, ireg(c, 0, cl, 5))
		}
	}
}

func TestEmptyGCCIsLocalOnly(t *testing.T) {
	c := newChip(t)
	load(t, c, 0, 0, `
    movi i1, #1
    eq gcc1, i1, i1
    empty gcc1
    halt
`, true)
	load(t, c, 0, 1, `
    mov i5, gcc1
    halt
`, true)
	for i := 0; i < 100; i++ {
		c.Step(c.Cycle)
	}
	// Cluster 1's replica must still be full (cluster 0 emptied only its
	// own copy), so the waiter completes.
	if c.Thread(0, 1).Status != cluster.ThreadHalted {
		t.Error("cluster 1 should have consumed its own gcc copy")
	}
	if ireg(c, 0, 1, 5) != 1 {
		t.Errorf("cluster 1 read %d", ireg(c, 0, 1, 5))
	}
}

func TestCSwitchPortBudget(t *testing.T) {
	cfg := chip.DefaultConfig()
	cfg.CSwitchPorts = 1
	net := noc.New(noc.Coord{X: 1, Y: 1, Z: 1}, cfg.Net)
	c := chip.New(cfg, noc.Coord{}, 0, net, &gtlb.Table{})
	// Two clusters transfer cross-cluster in the same cycle: with one
	// port, the second must wait a cycle — both still complete.
	src := `
    movi i1, #7
    mov @3.i5, i1
    halt
`
	load(t, c, 0, 0, src, true)
	load(t, c, 0, 1, "movi i1, #8\nmov @3.i6, i1\nhalt", true)
	for i := 0; i < 100; i++ {
		c.Step(c.Cycle)
	}
	if ireg(c, 0, 3, 5) != 7 || ireg(c, 0, 3, 6) != 8 {
		t.Errorf("transfers lost: i5=%d i6=%d", ireg(c, 0, 3, 5), ireg(c, 0, 3, 6))
	}
}

func TestUserNetReadIsProtected(t *testing.T) {
	c := newChip(t)
	load(t, c, 0, 0, "mov i1, net\nhalt", false)
	for i := 0; i < 50; i++ {
		c.Step(c.Cycle)
	}
	th := c.Thread(0, 0)
	// A user thread reading net has no queue mapped: it must never issue
	// (stall forever), not read message data.
	if th.Status != cluster.ThreadRunning || th.PC != 0 {
		t.Errorf("user net read: status=%v pc=%d", th.Status, th.PC)
	}
	if th.Issued != 0 {
		t.Error("user net read issued")
	}
}

func TestLoadMarksDestEmptyUntilFill(t *testing.T) {
	c := newChip(t)
	c.Mem.MapPage(0, 0, mem.BSReadWrite)
	c.Mem.SDRAM.Write(5, 99, false)
	load(t, c, 0, 0, `
    movi i1, #5
    ld i2, [i1]
    halt
`, true)
	// Step until the ld issues; immediately after, i2 must be empty.
	for i := 0; i < 3; i++ {
		c.Step(c.Cycle)
	}
	if c.Thread(0, 0).Ints.Full(2) {
		t.Error("load destination should be empty while in flight")
	}
	stepUntilHalt(t, c, 0, 0, 100)
	if ireg(c, 0, 0, 2) != 99 {
		t.Errorf("load result = %d", ireg(c, 0, 0, 2))
	}
}

func TestSendConsumesCreditAndAckRestores(t *testing.T) {
	cfg := chip.DefaultConfig()
	net := noc.New(noc.Coord{X: 2, Y: 1, Z: 1}, cfg.Net)
	gdt := &gtlb.Table{}
	if err := gdt.Add(gtlb.Entry{
		VirtPage: 0, GroupPages: 8,
		Start: gtlb.NodeID{X: 1}, PagesPerNode: 8,
	}); err != nil {
		t.Fatal(err)
	}
	c0 := chip.New(cfg, noc.Coord{}, 0, net, gdt)
	c1 := chip.New(cfg, noc.Coord{X: 1}, 1, net, gdt)
	load(t, c0, 0, 0, `
    movi i1, #100
    movi i2, #5
    movi i8, #42
    send i1, i2, i8, #1
    halt
`, true)
	credits0 := c0.Credits()
	for i := 0; i < 60; i++ {
		now := c0.Cycle
		c0.Step(now)
		c1.Step(now)
		c0.FlushNet(now)
		c1.FlushNet(now)
		net.Step(now)
	}
	if c1.MsgQueue(0).Empty() {
		t.Fatal("message never arrived")
	}
	if got := c1.MsgQueue(0).Pop().Bits; got != 5 {
		t.Errorf("first queue word = %d, want DIP 5", got)
	}
	if got := c1.MsgQueue(0).Pop().Bits; got != 100 {
		t.Errorf("second queue word = %d, want address 100", got)
	}
	if got := c1.MsgQueue(0).Pop().Bits; got != 42 {
		t.Errorf("body word = %d, want 42", got)
	}
	if c0.Credits() != credits0 {
		t.Errorf("credits = %d, want restored %d", c0.Credits(), credits0)
	}
}

// TestSendBodyOutsideRegisterFileFaults: a SEND whose body would read past
// the integer register file — here from a hand-built program, which the
// assembler would have refused — issues and raises a protection fault. It
// neither stalls forever nor crashes the chip, and sends nothing.
func TestSendBodyOutsideRegisterFileFaults(t *testing.T) {
	for _, imm := range []int64{-1, 9, 100} {
		c := newChip(t)
		c.LoadProgram(0, 0, &isa.Program{Name: "t", Insts: []isa.Inst{
			{MOp: &isa.Op{Code: isa.SEND, Src1: isa.Int(1), Src2: isa.Int(2), Dst: isa.Int(8), Imm: imm, HasImm: true}},
			{IOp: &isa.Op{Code: isa.HALT}},
		}}, true)
		credits := c.Credits()
		for i := 0; i < 20; i++ {
			c.Step(c.Cycle)
		}
		th := c.Thread(0, 0)
		if th.Status != cluster.ThreadFaulted || th.FaultMsg != "send body outside the register file" {
			t.Errorf("send of %d words from i8: status %v, fault %q; want the body fault", imm, th.Status, th.FaultMsg)
		}
		if c.OutboxLen() != 0 || c.Credits() != credits || c.ExcQueue().Empty() {
			t.Errorf("send of %d words from i8: outbox %d, credits %d of %d, exception queue empty %v; want nothing sent and a record queued",
				imm, c.OutboxLen(), c.Credits(), credits, c.ExcQueue().Empty())
		}
	}
}

// TestRecordOutsideRegisterFileFaults: a TLBW or MRETRY whose 4-register
// record is not i0..i12 — from a hand-built program, which the assembler
// would have refused — issues and raises a protection fault. It neither
// stalls forever (a base past i12) nor reads the integer file for another
// class's operand (f2 as i2..i5).
func TestRecordOutsideRegisterFileFaults(t *testing.T) {
	for _, op := range []*isa.Op{
		{Code: isa.MRETRY, Src1: isa.Int(14)},
		{Code: isa.TLBW, Src1: isa.Int(13)},
		{Code: isa.TLBW, Src1: isa.FP(2)},
	} {
		c := newChip(t)
		c.LoadProgram(0, 0, &isa.Program{Name: "t", Insts: []isa.Inst{{MOp: op}, {IOp: &isa.Op{Code: isa.HALT}}}}, true)
		for i := 0; i < 20; i++ {
			c.Step(c.Cycle)
		}
		th := c.Thread(0, 0)
		if th.Status != cluster.ThreadFaulted || th.FaultMsg != "record outside the register file" || c.ExcQueue().Empty() {
			t.Errorf("%v: status %v, fault %q, exception queue empty %v; want the record fault, queued", op, th.Status, th.FaultMsg, c.ExcQueue().Empty())
		}
	}
}

func TestDirectoryOps(t *testing.T) {
	c := newChip(t)
	load(t, c, 0, 0, `
    movi i1, #64
    movi i2, #3
    dirlog i1, i2
    movi i3, #5
    dirlog i1, i3
    dircnt i4, [i1]
    movi i5, #128
    dircnt i6, [i5]
    halt
`, true)
	stepUntilHalt(t, c, 0, 0, 100)
	if ireg(c, 0, 0, 4) != 2 {
		t.Errorf("dircnt = %d, want 2", ireg(c, 0, 0, 4))
	}
	if ireg(c, 0, 0, 6) != 0 {
		t.Errorf("dircnt empty = %d, want 0", ireg(c, 0, 0, 6))
	}
}

func TestJmprDispatch(t *testing.T) {
	c := newChip(t)
	load(t, c, 0, 0, `
    movi i1, #3
    jmpr i1
    movi i2, #111        ; skipped
target:
    movi i2, #222
    halt
`, true)
	stepUntilHalt(t, c, 0, 0, 100)
	if ireg(c, 0, 0, 2) != 222 {
		t.Errorf("i2 = %d, want 222 (jmpr must skip)", ireg(c, 0, 0, 2))
	}
}

func TestBranchTakenAndNotTaken(t *testing.T) {
	c := newChip(t)
	load(t, c, 0, 0, `
    movi i1, #0
    brt i1, bad          ; not taken
    movi i2, #1
    brf i1, good         ; taken
bad:
    movi i3, #99
good:
    halt
`, true)
	stepUntilHalt(t, c, 0, 0, 100)
	if ireg(c, 0, 0, 2) != 1 || ireg(c, 0, 0, 3) != 0 {
		t.Errorf("i2=%d i3=%d", ireg(c, 0, 0, 2), ireg(c, 0, 0, 3))
	}
}

func TestNodeThrCycSpecials(t *testing.T) {
	c := newChip(t)
	load(t, c, 2, 1, `
    mov i1, node
    mov i2, thr
    mov i3, cyc
    mov i4, cyc
    halt
`, true)
	stepUntilHalt(t, c, 2, 1, 100)
	if ireg(c, 2, 1, 1) != 0 {
		t.Errorf("node = %d", ireg(c, 2, 1, 1))
	}
	if ireg(c, 2, 1, 2) != 2 {
		t.Errorf("thr = %d, want 2", ireg(c, 2, 1, 2))
	}
	if ireg(c, 2, 1, 4) != ireg(c, 2, 1, 3)+1 {
		t.Errorf("cyc not monotonic: %d then %d", ireg(c, 2, 1, 3), ireg(c, 2, 1, 4))
	}
}

package machine_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cluster"
	"repro/internal/gp"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/rt"
)

// newMachine builds an N-node x-axis machine with the runtime installed and
// the first 4 GTLB pages of the address space homed per node: node i owns
// virtual words [i*4096, (i+1)*4096).
func newMachine(t *testing.T, nodes int, opts rt.Options) (*machine.Machine, *rt.Runtime) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Dims = noc.Coord{X: nodes, Y: 1, Z: 1}
	m := machine.New(cfg)
	r, err := rt.Install(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if err := m.MapNodeRange(uint64(i)*4096, 4, i); err != nil {
			t.Fatal(err)
		}
	}
	return m, r
}

func loadUser(t *testing.T, m *machine.Machine, node, vthread, cl int, src string) *isa.Program {
	t.Helper()
	p, err := asm.Assemble("user", src)
	if err != nil {
		t.Fatal(err)
	}
	// User test programs run privileged so they can use raw addresses;
	// protection-specific tests build pointers explicitly.
	m.Chip(node).LoadProgram(vthread, cl, p, true)
	return p
}

func run(t *testing.T, m *machine.Machine, max int64) int64 {
	t.Helper()
	n, err := m.Run(max)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return n
}

// stepUntil Steps m until pred holds, failing with what after max cycles.
func stepUntil(t *testing.T, m *machine.Machine, max int, what string, pred func() bool) {
	t.Helper()
	for i := 0; !pred(); i++ {
		if i == max {
			t.Fatalf("%s within %d cycles", what, max)
		}
		m.Step()
	}
}

func reg(m *machine.Machine, node, vt, cl, idx int) uint64 {
	return m.Chip(node).Thread(vt, cl).Ints.Get(idx).Bits
}

func TestBasicALU(t *testing.T) {
	m, _ := newMachine(t, 1, rt.Options{})
	loadUser(t, m, 0, 0, 0, `
    movi i1, #6
    movi i2, #7
    mul i3, i1, i2
    sub i4, i3, #2
    halt
`)
	run(t, m, 1000)
	if got := reg(m, 0, 0, 0, 3); got != 42 {
		t.Errorf("i3 = %d, want 42", got)
	}
	if got := reg(m, 0, 0, 0, 4); got != 40 {
		t.Errorf("i4 = %d, want 40", got)
	}
}

func TestLoadStoreLocalPrimed(t *testing.T) {
	m, _ := newMachine(t, 1, rt.Options{})
	m.MapLocal(0, 0, mem.BSReadWrite, true)
	if err := m.Poke(0, 5, 1234); err != nil {
		t.Fatal(err)
	}
	loadUser(t, m, 0, 0, 0, `
    movi i1, #5
    ld i2, [i1]
    add i3, i2, #1
    st [i1+1], i3
    halt
`)
	run(t, m, 1000)
	if got := reg(m, 0, 0, 0, 2); got != 1234 {
		t.Errorf("loaded %d, want 1234", got)
	}
	w, err := m.Peek(0, 6)
	if err != nil || w != 1235 {
		t.Errorf("stored %d (%v), want 1235", w, err)
	}
}

func TestLoadHitLatencyIsThreeCycles(t *testing.T) {
	m, _ := newMachine(t, 1, rt.Options{})
	m.MapLocal(0, 0, mem.BSReadWrite, true)
	// Warm the line, then measure a dependent-load sequence.
	loadUser(t, m, 0, 0, 0, `
    movi i1, #5
    ld i2, [i1]        ; cold miss, warms line
    mov i3, cyc
    ld i4, [i1]        ; hit
    add i5, i4, #0     ; dependent: issues when i4 full
    mov i6, cyc
    halt
`)
	run(t, m, 1000)
	start := reg(m, 0, 0, 0, 3)
	end := reg(m, 0, 0, 0, 6)
	// From the cycle after "mov i3,cyc" (load issues) to the dependent add
	// completing: ld at start+1, data at start+1+3, add at start+1+3,
	// mov i6 at start+1+3+1.
	if end-start != 5 {
		t.Errorf("hit-load dependency chain took %d cycles, want 5 (3-cycle load)", end-start)
	}
}

func TestLTLBMissHandledBySoftware(t *testing.T) {
	m, _ := newMachine(t, 1, rt.Options{})
	// Page in LPT only: first access takes an LTLB miss completed by the
	// cluster-1 handler.
	m.MapLocal(0, 0, mem.BSReadWrite, false)
	if err := m.Poke(0, 9, 777); err != nil {
		t.Fatal(err)
	}
	loadUser(t, m, 0, 0, 0, `
    movi i1, #9
    ld i2, [i1]
    halt
`)
	run(t, m, 5000)
	if got := reg(m, 0, 0, 0, 2); got != 777 {
		t.Errorf("loaded %d, want 777", got)
	}
	if m.Chip(0).Mem.LTLBFaults == 0 {
		t.Error("expected an LTLB fault")
	}
}

func TestFirstTouchAllocatesHomePage(t *testing.T) {
	// A store to an unmapped home address must allocate a page via the
	// LTLB-miss handler's first-touch path.
	m, _ := newMachine(t, 1, rt.Options{})
	loadUser(t, m, 0, 0, 0, `
    movi i1, #100
    movi i2, #55
    st [i1], i2
    ld i3, [i1]
    halt
`)
	run(t, m, 10000)
	if got := reg(m, 0, 0, 0, 3); got != 55 {
		t.Errorf("read back %d, want 55", got)
	}
}

func TestRemoteWriteNonCached(t *testing.T) {
	m, _ := newMachine(t, 2, rt.Options{})
	// Node 1 homes [4096, 8192); stores from node 0 travel as messages.
	loadUser(t, m, 0, 0, 0, `
    movi i1, #4200
    movi i2, #4242
    st [i1], i2
    halt
`)
	stepUntil(t, m, 20000, "remote write never landed", func() bool {
		w, err := m.Peek(1, 4200)
		return err == nil && w == 4242
	})
}

func TestRemoteReadNonCached(t *testing.T) {
	m, _ := newMachine(t, 2, rt.Options{})
	// Stage the data at its home (node 1) by first-touching there.
	loadUser(t, m, 1, 0, 0, `
    movi i1, #4300
    movi i2, #31415
    st [i1], i2
    halt
`)
	run(t, m, 20000)

	loadUser(t, m, 0, 0, 0, `
    movi i1, #4300
    ld i2, [i1]
    add i3, i2, #1
    halt
`)
	run(t, m, 20000)
	if got := reg(m, 0, 0, 0, 3); got != 31416 {
		t.Errorf("remote read+1 = %d, want 31416", got)
	}
}

func TestRemoteAccessCached(t *testing.T) {
	m, _ := newMachine(t, 2, rt.Options{Caching: true})
	loadUser(t, m, 1, 0, 0, `
    movi i1, #4096
    movi i2, #111
    st [i1], i2
    movi i3, #222
    st [i1+1], i3
    halt
`)
	run(t, m, 20000)

	loadUser(t, m, 0, 0, 0, `
    movi i1, #4096
    ld i2, [i1]        ; first touch: shadow page + block fetch
    ld i3, [i1+1]      ; same block: now local
    add i4, i2, i3
    halt
`)
	run(t, m, 50000)
	if got := reg(m, 0, 0, 0, 4); got != 333 {
		t.Errorf("cached remote sum = %d, want 333", got)
	}
	// The block must now be resident in node 0's local DRAM.
	if st := m.Chip(0).Mem.BlockStatusOf(4096); st != mem.BSReadWrite && st != mem.BSDirty {
		t.Errorf("block status after fetch = %v, want READ/WRITE or DIRTY", st)
	}
}

func TestVThreadInterleaving(t *testing.T) {
	// Two V-Threads on the same cluster interleave cycle-by-cycle; both
	// must make progress and the total issue count must match.
	m, _ := newMachine(t, 1, rt.Options{})
	src := `
    movi i1, #0
    movi i2, #100
loop:
    add i1, i1, #1
    lt  i3, i1, i2
    brt i3, loop
    halt
`
	loadUser(t, m, 0, 0, 0, src)
	loadUser(t, m, 0, 1, 0, src)
	run(t, m, 5000)
	if got := reg(m, 0, 0, 0, 1); got != 100 {
		t.Errorf("vthread 0 count = %d, want 100", got)
	}
	if got := reg(m, 0, 1, 0, 1); got != 100 {
		t.Errorf("vthread 1 count = %d, want 100", got)
	}
}

func TestHThreadRegisterTransferAndGCC(t *testing.T) {
	// Cluster 0 computes and ships a value to cluster 1 through the
	// C-Switch; cluster 1 waits on the scoreboard (Figure 5(b) pattern),
	// then signals completion back via a global CC register.
	m, _ := newMachine(t, 1, rt.Options{})
	h0 := `
    movi i1, #40
    add @1.i5, i1, #2  ; write cluster 1's i5
    brf gcc1, done     ; wait for gcc1 (set by H-Thread 1)
done:
    halt
`
	h1 := `
    empty i5           ; prepare to receive
    add i6, i5, #0     ; stalls until the transfer arrives
    movi i7, #1
    eq gcc1, i7, i7    ; broadcast completion
    halt
`
	loadUser(t, m, 0, 0, 0, h0)
	loadUser(t, m, 0, 0, 1, h1)
	run(t, m, 5000)
	if got := reg(m, 0, 0, 1, 6); got != 42 {
		t.Errorf("transferred value = %d, want 42", got)
	}
}

func TestSyncBitsProducerConsumer(t *testing.T) {
	// Producer on V-Thread 0 stores with post=full; consumer on V-Thread 1
	// spins via sync-fault retry until the word is full.
	m, _ := newMachine(t, 1, rt.Options{})
	m.MapLocal(0, 0, mem.BSReadWrite, true)
	loadUser(t, m, 0, 1, 0, `
    movi i1, #50
    ldsy.fe i2, [i1]   ; consume when full, leave empty
    halt
`)
	loadUser(t, m, 0, 0, 0, `
    movi i1, #0
    movi i2, #400
spin:
    add i1, i1, #1     ; delay so the consumer faults first
    lt  i3, i1, i2
    brt i3, spin
    movi i4, #50
    movi i5, #888
    stsy.af [i4], i5   ; store and set full
    halt
`)
	run(t, m, 50000)
	if got := reg(m, 0, 1, 0, 2); got != 888 {
		t.Errorf("consumer got %d, want 888", got)
	}
	if b, _ := m.Chip(0).Mem.SyncVirt(50); b {
		t.Error("sync bit should be empty after ldsy.fe")
	}
	if m.Chip(0).Mem.SyncFaults == 0 {
		t.Error("expected sync faults from the early consumer")
	}
}

func TestUserProtectionFaults(t *testing.T) {
	m, _ := newMachine(t, 1, rt.Options{})
	m.MapLocal(0, 0, mem.BSReadWrite, true)
	p, err := asm.Assemble("user", `
    movi i1, #5
    ld i2, [i1]        ; untagged address from user mode: protection fault
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m.Chip(0).LoadProgram(0, 0, p, false) // unprivileged
	if _, err := m.Run(1000); err == nil {
		t.Fatal("expected a fault error")
	}
	th := m.Chip(0).Thread(0, 0)
	if th.Status != cluster.ThreadFaulted {
		t.Errorf("thread status = %v, want faulted", th.Status)
	}
	// The exception V-Thread's handler drains the queue into the log.
	if got := rt.ExceptionCount(m, 0); got != 1 {
		t.Errorf("exception log count = %d, want 1", got)
	}
	logBase := rt.ExceptionLogAddr(m.Cfg.Chip.Mem)
	vt, _ := m.Chip(0).Mem.SDRAM.Read(logBase + 1)
	cl, _ := m.Chip(0).Mem.SDRAM.Read(logBase + 2)
	if vt != 0 || cl != 0 {
		t.Errorf("exception log entry = vthread %d cluster %d, want 0/0", vt, cl)
	}
}

func TestGuardedPointerUserAccess(t *testing.T) {
	// A privileged loader thread forges a pointer into cluster 1's
	// register file; the unprivileged thread there uses it legally, then
	// oversteps the segment and faults.
	m, _ := newMachine(t, 1, rt.Options{})
	m.MapLocal(0, 0, mem.BSReadWrite, true)
	if err := m.Poke(0, 64, 2024); err != nil {
		t.Fatal(err)
	}
	loader := `
    movi i1, #64
    setptr i2, i1, #0x33  ; perms=rw(3), segLen=3 (8-word segment)
    mov @1.i5, i2
    halt
`
	user := `
    empty i5
    ld i6, [i5]        ; legal: word 64, inside [64,72)
    ld i7, [i5+7]      ; legal: word 71
    ld i8, [i5+8]      ; segment overflow: fault
    halt
`
	loadUser(t, m, 0, 0, 0, loader) // privileged
	p, err := asm.Assemble("user", user)
	if err != nil {
		t.Fatal(err)
	}
	m.Chip(0).LoadProgram(0, 1, p, false)
	if _, err := m.Run(5000); err == nil {
		t.Fatal("expected segment-overflow fault")
	}
	th := m.Chip(0).Thread(0, 1)
	if th.Status != cluster.ThreadFaulted {
		t.Fatalf("thread = %v, want faulted", th.Status)
	}
	if got := th.Ints.Get(6).Bits; got != 2024 {
		t.Errorf("legal load got %d, want 2024", got)
	}
}

func TestUserSendRequiresValidDIP(t *testing.T) {
	m, r := newMachine(t, 2, rt.Options{})
	m.MapLocal(0, 0, mem.BSReadWrite, true)
	// A user thread sending with an unregistered DIP must fault before the
	// message leaves.
	src := `
    movi i1, #4096
    setptr i2, i1, #0x63  ; rw pointer, 64-word segment... segLen=6
    movi i3, #9999        ; illegal DIP
    movi i8, #1
    send i2, i3, i8, #1
    halt
`
	p, err := asm.Assemble("user", src)
	if err != nil {
		t.Fatal(err)
	}
	m.Chip(0).LoadProgram(0, 0, p, false)
	if _, err := m.Run(5000); err == nil {
		t.Fatal("expected illegal-DIP fault")
	}
	_ = r
}

func TestUserLevelMessagePassing(t *testing.T) {
	// Figure 7: a user thread performs a remote store with a single SEND;
	// the destination's message handler executes the store. The system
	// hands the user a guarded pointer to the remote region at startup.
	m, r := newMachine(t, 2, rt.Options{})
	src := `
    movi i3, #DIP
    movi i8, #777          ; body: the stored word
    send i2, i3, i8, #1    ; i2 holds the system-provided pointer
    halt
`
	p, err := asm.Assemble("user", ".equ DIP "+itoa(r.DIPRemoteWrite)+"\n"+src)
	if err != nil {
		t.Fatal(err)
	}
	m.Chip(0).LoadProgram(0, 0, p, false)
	m.Chip(0).Thread(0, 0).Ints.Set(2, isa.Word{
		Bits: uint64(gp.MustMake(gp.PermRW, 9, 4500)),
		Ptr:  true,
	})
	stepUntil(t, m, 20000, "user-level remote store failed", func() bool {
		w, err := m.Peek(1, 4500)
		return err == nil && w == 777
	})
}

func TestThrottlingBlocksSends(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Chip.SendCredits = 2
	cfg.Chip.MsgQueueCap = 8
	m := machine.New(cfg)
	r, err := rt.Install(m, rt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.MapNodeRange(0, 4, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.MapNodeRange(4096, 4, 1); err != nil {
		t.Fatal(err)
	}
	// Flood node 1 with remote stores; with 2 credits the sender must
	// stall on SEND until acks return.
	src := `
    movi i1, #4096
    movi i3, #DIP
    movi i8, #1
    movi i5, #0
    movi i6, #32
loop:
    send i1, i3, i8, #1
    add i5, i5, #1
    lt  i7, i5, i6
    brt i7, loop
    halt
`
	p, aerr := asm.Assemble("flood", ".equ DIP "+itoa(r.DIPRemoteWrite)+"\n"+src)
	if aerr != nil {
		t.Fatal(aerr)
	}
	m.Chip(0).LoadProgram(0, 0, p, true)
	if _, err := m.Run(200000); err != nil {
		t.Fatal(err)
	}
	if m.Chip(0).SendsBlocked == 0 {
		t.Error("expected SEND stalls under credit exhaustion")
	}
	if m.Chip(0).Credits() != 2 {
		t.Errorf("credits = %d, want restored to 2", m.Chip(0).Credits())
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

package machine_test

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/rt"
)

// TestFetchAddRPC exercises the remote-procedure-call handler: two nodes
// concurrently fetch-and-add the same remote counter; serialization at the
// home node's handler makes the updates atomic.
func TestFetchAddRPC(t *testing.T) {
	m, r := newMachine(t, 3, rt.Options{})
	counter := uint64(2*4096 + 10) // homed on node 2

	// Initialize the counter at its home.
	loadUser(t, m, 2, 1, 0, fmt.Sprintf(`
    movi i1, #%d
    movi i2, #0
    st [i1], i2
    halt
`, counter))
	run(t, m, 50000)

	// Each client performs 8 fetch-adds of +1, composing the RPC body
	// [delta, regdesc, srcnode] in registers. Waiting on i11 (written by
	// the read reply) serializes each client's RPCs.
	for node := 0; node < 2; node++ {
		loadUser(t, m, node, 0, 0, fmt.Sprintf(`
    movi i1, #%d            ; counter address
    movi i2, #%d            ; fetch-add DIP
    movi i3, #0             ; iteration counter
    movi i4, #8
loop:
    movi i8, #1             ; body word 0: delta
    movi i9, #%d            ; body word 1: regdesc for i11
    mov  i10, node          ; body word 2: source node
    empty i11
    send i1, i2, i8, #3
    add  i12, i11, #0       ; wait for the reply (old value)
    add  i3, i3, #1
    lt   i13, i3, i4
    brt  i13, loop
    halt
`, counter, r.DIPFetchAdd, isa.RegDesc(0, 0, isa.Int(11))))
	}
	run(t, m, 500000)
	w, err := m.Peek(2, counter)
	if err != nil {
		t.Fatal(err)
	}
	if w != 16 {
		t.Errorf("counter = %d, want 16 (2 clients x 8 atomic increments)", w)
	}
	// The last old value each client saw must be < 16.
	for node := 0; node < 2; node++ {
		if got := reg(m, node, 0, 0, 12); got >= 16 {
			t.Errorf("node %d last observed value = %d", node, got)
		}
	}
}

// TestBlockWriteBack exercises the software coherence flush: node 0 caches
// a remote block, dirties it, and flushes it home; the home then observes
// the new data and the local copy is demoted to READ-ONLY.
func TestBlockWriteBack(t *testing.T) {
	m, r := newMachine(t, 2, rt.Options{Caching: true})
	base := uint64(4096) // homed on node 1

	// Stage data at home.
	loadUser(t, m, 1, 0, 0, fmt.Sprintf(`
    movi i1, #%d
    movi i2, #500
    st [i1], i2
    st [i1+1], i2
    halt
`, base))
	run(t, m, 100000)

	// Node 0: fetch the block (first touch), dirty it, flush it home.
	src := fmt.Sprintf(`
    movi i1, #%d
    ld i2, [i1]             ; block fetch via status-fault handler
    movi i3, #777
    st [i1], i3             ; dirty the cached copy
    movi i1, #%d
`, base, base) + r.FlushBlockSrc() + "\n    halt\n"
	loadUser(t, m, 0, 0, 0, src)
	stepUntil(t, m, 500000, "flush never reached home", func() bool {
		w, err := m.Peek(1, base)
		return err == nil && w == 777
	})
	// Give the flush's bsw time to settle, then check the demotion.
	if _, err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if st := m.Chip(0).Mem.BlockStatusOf(base); st != mem.BSReadOnly {
		t.Errorf("local copy status = %v, want READ-ONLY after flush", st)
	}
}

// Test3DMeshRemoteAccess runs transparent remote accesses across a 2x2x2
// mesh: the corner nodes exchange data over multi-hop dimension-order
// routes.
func Test3DMeshRemoteAccess(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Dims = noc.Coord{X: 2, Y: 2, Z: 2}
	m := machine.New(cfg)
	if _, err := rt.Install(m, rt.Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := m.MapNodeRange(uint64(i)*4096, 4, i); err != nil {
			t.Fatal(err)
		}
	}
	// Node 0 (corner 0,0,0) writes into node 7's space (corner 1,1,1):
	// three hops each way.
	loadUser(t, m, 0, 0, 0, `
    movi i1, #28672         ; 7*4096
    movi i2, #31415
    st [i1], i2
    ld  i3, [i1]
    halt
`)
	run(t, m, 200000)
	if got := reg(m, 0, 0, 0, 3); got != 31415 {
		t.Errorf("corner-to-corner read back %d, want 31415", got)
	}
	w, err := m.Peek(7, 28672)
	if err != nil || w != 31415 {
		t.Errorf("node 7 holds %d (%v)", w, err)
	}
	// Dimension-order routing must have produced 3-hop paths.
	if m.Net.TotalHops < 6 {
		t.Errorf("total hops = %d, want >= 6 for corner-to-corner round trip", m.Net.TotalHops)
	}
}

// TestTwelveWideILP sustains issue on all 12 function units: four clusters
// each running a 3-wide instruction stream in the same V-Thread.
func TestTwelveWideILP(t *testing.T) {
	m, _ := newMachine(t, 1, rt.Options{})
	src := `
    movi i1, #0 | movi f1, #0
    movi i2, #32
loop:
    add i1, i1, #1 | sub i3, i2, i1 | fadd f1, f1, f1
    lt  i4, i1, i2
    brt i4, loop
    halt
`
	for cl := 0; cl < isa.NumClusters; cl++ {
		loadUser(t, m, 0, 0, cl, src)
	}
	cycles := run(t, m, 10000)
	var ops uint64
	for cl := 0; cl < isa.NumClusters; cl++ {
		ops += m.Chip(0).Thread(0, cl).OpsIssued
	}
	// 4 clusters x 32 iterations x (3+1+1 ops) + setup: the op rate must
	// exceed 4 ops/cycle (impossible on fewer than 2 clusters).
	rate := float64(ops) / float64(cycles)
	if rate < 4 {
		t.Errorf("op rate = %.2f ops/cycle across 12 units, want >= 4", rate)
	}
}

// TestEventQueueBacklog floods the LTLB-miss handler with misses from four
// user V-Threads touching distinct unmapped pages; every access must
// eventually complete.
func TestEventQueueBacklog(t *testing.T) {
	m, _ := newMachine(t, 1, rt.Options{})
	for vt := 0; vt < isa.NumUserSlots; vt++ {
		loadUser(t, m, 0, vt, 0, fmt.Sprintf(`
    movi i1, #%d
    movi i2, #0
    movi i3, #4
loop:
    st [i1], i1             ; page miss on each new page
    ld i4, [i1]
    add i5, i5, i4
    movi i6, #512
    add i1, i1, i6
    add i2, i2, #1
    lt  i6, i2, i3
    brt i6, loop
    halt
`, 100+vt*40)) // distinct offsets; pages overlap across threads
	}
	run(t, m, 500000)
	if m.Chip(0).Mem.LTLBFaults == 0 {
		t.Fatal("no LTLB pressure generated")
	}
	for vt := 0; vt < isa.NumUserSlots; vt++ {
		if got := reg(m, 0, vt, 0, 2); got != 4 {
			t.Errorf("vthread %d finished %d/4 iterations", vt, got)
		}
	}
}

// TestGCCFourWayBarrier runs the Figure 6 protocol extended to a 4-way
// barrier: all four H-Threads must stay in lock step for every iteration.
func TestGCCFourWayBarrier(t *testing.T) {
	m, _ := newMachine(t, 1, rt.Options{})
	lead := `
    movi i1, #0
    movi i2, #25
loop:
    add i1, i1, #1
    eq  gcc1, i1, i2
    mov i4, gcc3
    empty gcc3
    mov i4, gcc5
    empty gcc5
    mov i4, gcc7
    empty gcc7
    lt  i5, i1, i2
    brt i5, loop
    halt
`
	follower := func(ack int) string {
		return fmt.Sprintf(`
    movi i1, #0
loop:
    add i1, i1, #1
    mov i3, gcc1
    empty gcc1
    eq  gcc%d, i1, i1
    brf i3, loop
    halt
`, ack)
	}
	loadUser(t, m, 0, 0, 0, lead)
	loadUser(t, m, 0, 0, 1, follower(3))
	loadUser(t, m, 0, 0, 2, follower(5))
	loadUser(t, m, 0, 0, 3, follower(7))
	run(t, m, 50000)
	for cl := 0; cl < 4; cl++ {
		if got := reg(m, 0, 0, cl, 1); got != 25 {
			t.Errorf("cluster %d ran %d iterations, want 25", cl, got)
		}
	}
}

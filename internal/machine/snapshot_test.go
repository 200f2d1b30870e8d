package machine_test

// Checkpoint/restore regression: run → snapshot → continue and
// restore-into-fresh-machine → continue must be bit-identical — cycle
// counts, register and memory state, statistics, and the trace streams of
// the continuation — across both engines (naive, event), including
// cross-engine restores (snapshot under one engine, continue under
// another). Corrupt, truncated, and
// wrong-version snapshots must fail with a descriptive error and leave
// the machine untouched.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/rt"
	"repro/internal/snap"
	"repro/internal/snap/snaptest"
	"repro/internal/trace"
)

// snapMode is one engine configuration of the snapshot matrix.
type snapMode struct {
	name  string
	naive bool
}

// The parallel2 and parallel3 rows ran the chip-phase worker pool at two
// and three workers. The pool is gone; they keep their names and repeat
// the event row until the matrix is re-cut (ROADMAP item 9).
var snapModes = []snapMode{
	{"naive", true},
	{"event", false},
	{"parallel2", false},
	{"parallel3", false},
}

// buildSnapWorkload boots a 4-node machine under the given engine with a
// mixed workload: cross-node remote loads and stores (in-flight messages,
// handler dispatches, LTLB misses), local arithmetic, and console output,
// so a mid-run snapshot carries every serialized structure.
func buildSnapWorkload(t *testing.T, mode snapMode) *machine.Machine {
	t.Helper()
	const nodes = 4
	cfg := machine.DefaultConfig()
	cfg.Dims = noc.Coord{X: nodes, Y: 1, Z: 1}
	m := machine.New(cfg)
	m.Naive = mode.naive
	if _, err := rt.Install(m, rt.Options{Caching: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if err := m.MapNodeRange(uint64(i)*4096, 4, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nodes; i++ {
		succ := (i + 1) % nodes
		loadUser(t, m, i, 0, 0, fmt.Sprintf(`
    movi i1, #%d            ; successor home base (remote traffic)
    movi i2, #0
    movi i3, #%d
    movi i9, #1024
    shl  i9, i9, #10        ; console window (1 MW)
loop:
    st [i1], i2             ; remote store
    ld i4, [i1]             ; dependent remote load
    add i5, i5, i4
    stp [i9+1], i5          ; console: running checksum
    add i1, i1, #7
    add i2, i2, #1
    lt i6, i2, i3
    brt i6, loop
    halt
`, succ*4096+64, 12+4*i))
	}
	return m
}

// snapFingerprint summarizes the observable final state: the digest, and
// in readable form the statistics, every H-Thread's stall count, registers,
// console and memory a divergence would show up in.
func snapFingerprint(t *testing.T, m *machine.Machine, ran int64) string {
	t.Helper()
	digest, err := m.Digest()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digest=%s ran=%d end=%d net=%d/%d/%d\n",
		digest, ran, m.Cycle, m.Net.Injected, m.Net.Delivered, m.Net.TotalHops)
	for i := 0; i < m.NumNodes(); i++ {
		c := m.Chip(i)
		var stalls []uint64
		for vt := 0; vt < isa.NumVThreads; vt++ {
			for cl := 0; cl < isa.NumClusters; cl++ {
				stalls = append(stalls, c.Thread(vt, cl).StallCycles)
			}
		}
		fmt.Fprintf(&b, "node%d insts=%d ops=%d stalls=%v i2=%d i5=%d ltlb=%d cache=%d/%d console=%q\n",
			i, c.InstsIssued, c.OpsIssued, stalls,
			reg(m, i, 0, 0, 2), reg(m, i, 0, 0, 5),
			c.Mem.LTLBFaults, c.Mem.Cache.Hits, c.Mem.Cache.Misses,
			c.Console.String())
		// Memory contents in the successor's exercised range.
		base := uint64((i+1)%m.NumNodes())*4096 + 64
		for off := uint64(0); off < 64; off += 16 {
			w, err := m.Peek((i+1)%m.NumNodes(), base+off)
			if err == nil {
				fmt.Fprintf(&b, " mem[%d]=%d", base+off, w)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// stepN advances the machine N cycles under its configured engine.
func stepN(m *machine.Machine, n int) {
	m.WakeAll()
	for i := 0; i < n; i++ {
		m.Step()
	}
}

// TestSnapshotRoundTripMatrix is the determinism matrix: for every engine
// pair (save under A, continue under A) vs (restore under B, continue
// under B), the continuations must be bit-identical including their trace
// streams, and re-saving a restored machine must reproduce the snapshot
// byte for byte. Each restore runs twice: into a fresh machine, and into
// one caught mid-phase one cycle past the snapshot — its due-set and its
// chips' deferred bookkeeping belong to the state being replaced, and its
// trace sink was installed before the restore.
func TestSnapshotRoundTripMatrix(t *testing.T) {
	const snapAt = 2500
	var refFP string
	for _, save := range snapModes {
		save := save
		t.Run("save/"+save.name, func(t *testing.T) {
			a := buildSnapWorkload(t, save)
			defer a.Close()
			stepN(a, snapAt)
			var buf bytes.Buffer
			if err := a.Save(&buf); err != nil {
				t.Fatal(err)
			}
			snapshot := buf.Bytes()

			// Continue the original; record the continuation's trace.
			traceA := &trace.Recorder{}
			a.SetTrace(traceA)
			ran, err := a.Run(500000)
			if err != nil {
				t.Fatal(err)
			}
			fpA := snapFingerprint(t, a, ran) + traceText(traceA)
			if refFP == "" {
				refFP = fpA
			} else if fpA != refFP {
				t.Errorf("continuation under %s diverged from the first engine's:\n%.1500s\nvs\n%.1500s",
					save.name, fpA, refFP)
			}

			for _, restore := range snapModes {
				for _, midPhase := range []bool{false, true} {
					runRestore(t, restore, midPhase, snapAt, snapshot, save.name, fpA)
				}
			}
		})
	}
}

// runRestore is one restore cell of TestSnapshotRoundTripMatrix.
func runRestore(t *testing.T, restore snapMode, midPhase bool, snapAt int, snapshot []byte, saveName, fpA string) {
	name := "restore/" + restore.name
	if midPhase {
		name += "-midphase"
	}
	t.Run(name, func(t *testing.T) {
		b := buildSnapWorkload(t, restore)
		defer b.Close()
		traceB := &trace.Recorder{}
		if midPhase {
			stepN(b, snapAt+1)
			b.SetTrace(traceB)
		}
		if err := b.Restore(snapshot); err != nil {
			t.Fatal(err)
		}
		// A restored machine must re-serialize to the identical
		// snapshot: restore loses nothing.
		var again bytes.Buffer
		if err := b.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), snapshot) {
			t.Errorf("re-saved snapshot differs from the original (%d vs %d bytes)",
				again.Len(), len(snapshot))
		}
		if !midPhase {
			b.SetTrace(traceB)
		}
		ranB, err := b.Run(500000)
		if err != nil {
			t.Fatal(err)
		}
		fpB := snapFingerprint(t, b, ranB) + traceText(traceB)
		if fpB != fpA {
			t.Errorf("restore under %s diverged from continue under %s:\n%.1500s\nvs\n%.1500s",
				restore.name, saveName, fpB, fpA)
		}
	})
}

// TestSnapshotFork: a fork taken mid-run evolves independently and lands
// on the same result as its parent; mutating the fork leaves the parent's
// continuation untouched.
func TestSnapshotFork(t *testing.T) {
	a := buildSnapWorkload(t, snapModes[1])
	stepN(a, 2000)
	f, err := a.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Perturb the fork: poke a word the workload reads, then run both.
	ranA, err := a.Run(500000)
	if err != nil {
		t.Fatal(err)
	}
	ranF, err := f.Run(500000)
	if err != nil {
		t.Fatal(err)
	}
	if fpA, fpF := snapFingerprint(t, a, ranA), snapFingerprint(t, f, ranF); fpA != fpF {
		t.Errorf("fork diverged from parent:\n%s\nvs\n%s", fpF, fpA)
	}
}

// oneNode returns a 1-node machine of the default configuration.
func oneNode(t *testing.T) *machine.Machine {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Dims = noc.Coord{X: 1, Y: 1, Z: 1}
	m := machine.New(cfg)
	t.Cleanup(m.Close)
	return m
}

// TestSnapshotIsFunctionOfContents: a snapshot depends on what memory
// holds, not on which SDRAM pages were ever allocated. A machine that
// wrote a page and then zeroed it, one whose zeroed page is a Clone's
// copy-on-write copy, and one that never touched either page have equal
// Save bytes and Digests.
func TestSnapshotIsFunctionOfContents(t *testing.T) {
	const written, copied = 5*8192 + 3*512 + 17, 9*8192 + 11*512 + 200
	untouched := oneNode(t)
	zeroed := oneNode(t)
	sd := zeroed.Chips[0].Mem.SDRAM
	sd.Write(written, 0xfeed, true)
	sd.SetSyncBit(written, true)
	sd.Write(written, 0, false)
	sd.SetSyncBit(written, false)
	base := oneNode(t)
	base.Chips[0].Mem.SDRAM.Write(copied, 0xbeef, false)
	cow, err := base.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer cow.Close()
	cow.Chips[0].Mem.SDRAM.Write(copied, 0, false)

	var want bytes.Buffer
	if err := untouched.Save(&want); err != nil {
		t.Fatal(err)
	}
	wantDigest, err := untouched.Digest()
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*machine.Machine{"zeroed": zeroed, "copy-on-write": cow} {
		var got bytes.Buffer
		if err := m.Save(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: Save is %d bytes unlike the untouched machine's %d", name, got.Len(), want.Len())
		}
		if d, err := m.Digest(); err != nil || d != wantDigest {
			t.Errorf("%s: Digest %s (%v), want the untouched machine's %s", name, d, err, wantDigest)
		}
	}
}

// TestSnapshotSDRAMSize: a chunk travels as its index, its page mask and
// only the pages that hold data, so one word in each of two pages of an
// untouched chunk adds one index, one mask and two pages to a 1-node
// machine's SDRAM section, not the chunk's sixteen pages.
func TestSnapshotSDRAMSize(t *testing.T) {
	section := func(m *machine.Machine) int {
		var b bytes.Buffer
		c := snap.NewEncoder(&b)
		m.Chips[0].Mem.SDRAM.State(c)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		return b.Len()
	}
	m := oneNode(t)
	before := section(m)
	sd := m.Chips[0].Mem.SDRAM
	sd.Write(3*8192+2*512+1, 1, false)
	sd.Write(3*8192+7*512+500, 2, false)
	const page = (512 + 2*8) * 8 // words, pointer-tag words, sync words
	if got, want := section(m)-before, 8+8+2*page; got != want {
		t.Errorf("two written pages of one chunk add %d bytes to the SDRAM section, want %d (one index, one mask, two pages)", got, want)
	}
}

// TestSnapshotThreadSize: a thread context costs what it holds. An empty
// slot writes its control words, a program reference and two banks of
// masks — no register values. Thirty-two nodes running one handler carry
// its words once, in the stream's program table, and the stream depends
// on the program's contents, not on how many objects hold them.
func TestSnapshotThreadSize(t *testing.T) {
	const emptySlot = 8 + 1 + 8 + 8 + 3*8 + 8 + 2*3*8 // status, privilege, PC, fault, stats, program, banks
	m := oneNode(t)
	enc := snaptest.Encode(t, m.Chips[0].Clusters[1].Threads[2].State)
	if len(enc) != emptySlot {
		t.Errorf("an empty slot writes %d bytes, want %d", len(enc), emptySlot)
	}

	const src = "movi i1, #6\nmul i2, i1, #7\nhalt"
	save := func(progs func(node int) *isa.Program) []byte {
		cfg := machine.DefaultConfig()
		cfg.Dims = noc.Coord{X: 4, Y: 4, Z: 2}
		m := machine.New(cfg)
		defer m.Close()
		for i, ch := range m.Chips {
			ch.LoadProgram(0, i%isa.NumClusters, progs(i), false)
		}
		var b bytes.Buffer
		if err := m.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	shared := asm.MustAssemble("handler", src)
	one := save(func(int) *isa.Program { return shared })
	var words []byte
	for _, w := range isa.EncodeProgram(shared) {
		words = binary.LittleEndian.AppendUint64(words, w)
	}
	if n := bytes.Count(one, words); n != 1 {
		t.Errorf("32 nodes running one program carry its words %d times, want once", n)
	}
	if copies := save(func(int) *isa.Program { return asm.MustAssemble("handler", src) }); !bytes.Equal(copies, one) {
		t.Errorf("32 equal copies of a program save %d bytes unlike one shared program's %d", len(copies), len(one))
	}
}

// TestSnapshotErrors: corrupt, truncated, and wrong-version snapshots
// must return descriptive errors and leave the machine as it was — the
// same chip and network objects (a restore installs new ones only once
// the whole stream has validated), holding the same bytes, pinned by
// comparing a full re-save before and after each failed restore.
func TestSnapshotErrors(t *testing.T) {
	m := buildSnapWorkload(t, snapModes[1])
	stepN(m, 1500)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	before := append([]byte(nil), good...)
	chip0, net := m.Chips[0], m.Net

	untouched := func(name string) {
		t.Helper()
		if m.Chips[0] != chip0 || m.Net != net {
			t.Errorf("%s: failed restore replaced the machine's chips or network", name)
		}
		var after bytes.Buffer
		if err := m.Save(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after.Bytes(), before) {
			t.Errorf("%s: failed restore mutated the machine", name)
		}
	}
	check := func(name string, data []byte, wantSub string) {
		t.Helper()
		err := m.Restore(data)
		if err == nil {
			t.Fatalf("%s: Restore succeeded on bad input", name)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: error %q does not mention %q", name, err, wantSub)
		}
		untouched(name)
	}

	check("empty", nil, "truncated")
	check("garbage", []byte("this is not a snapshot at all, not even close"), "magic")

	wrongVer := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(wrongVer[8:], 99)
	check("version", wrongVer, "version 99")

	// The stream ends: ... last chip, network, trailer word. Cut inside
	// each of the three, after every earlier part decoded cleanly.
	netLen := len(snaptest.Encode(t, m.Net.State))
	for _, cut := range []int{12, 40, 300, len(good) / 2, len(good) - 8 - netLen - 100, len(good) - 9, len(good) - 3} {
		check(fmt.Sprintf("truncated@%d", cut), good[:cut], "truncated")
	}
	badTrailer := append([]byte(nil), good...)
	badTrailer[len(badTrailer)-1] ^= 0xFF
	check("trailer", badTrailer, "trailer missing")

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0xFF
	err := m.Restore(flipped)
	if err == nil {
		// A single flipped byte in bulk data (e.g. an SDRAM word) can still
		// decode structurally; what matters is that structural corruption
		// errors out, which the truncation cases above pin. But if it did
		// error, the machine must be untouched.
		t.Skip("bit flip landed in bulk data and decoded structurally")
	}
	untouched("flipped")

	// Mesh-shape mismatch: a 2-node snapshot must not restore here.
	cfg := machine.DefaultConfig()
	small := machine.New(cfg)
	if _, err := rt.Install(small, rt.Options{}); err != nil {
		t.Fatal(err)
	}
	var sbuf bytes.Buffer
	if err := small.Save(&sbuf); err != nil {
		t.Fatal(err)
	}
	check("shape", sbuf.Bytes(), "mesh")

	// And the machine must still continue correctly after all that.
	if _, err := m.Run(500000); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleClose: Close is idempotent — a second Close (before and after
// steps, and after a finished Run) is a harmless no-op.
func TestDoubleClose(t *testing.T) {
	for _, steps := range []int{0, 4} {
		t.Run(fmt.Sprintf("steps%d", steps), func(t *testing.T) {
			cfg := machine.DefaultConfig()
			cfg.Dims = noc.Coord{X: 4, Y: 1, Z: 1}
			m := machine.New(cfg)
			loadUser(t, m, 0, 0, 0, "movi i1, #1\nhalt")
			for i := 0; i < steps; i++ {
				m.Step()
			}
			m.Close()
			m.Close() // must not panic or deadlock
		})
	}
	t.Run("afterRun", func(t *testing.T) {
		cfg := machine.DefaultConfig()
		cfg.Dims = noc.Coord{X: 4, Y: 1, Z: 1}
		m := machine.New(cfg)
		loadUser(t, m, 0, 0, 0, "movi i1, #1\nhalt")
		if _, err := m.Run(100000); err != nil {
			t.Fatal(err)
		}
		m.Close()
		m.Close()
	})
}

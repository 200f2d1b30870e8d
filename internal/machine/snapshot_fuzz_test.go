package machine_test

// FuzzSnapshotDecode pins the snapshot decoder's robustness contract
// (DESIGN.md "Checkpoint/restore", and the crash-dump path in
// internal/guard that depends on it): feeding Restore an arbitrary byte
// stream must either succeed or return a descriptive error — never
// panic, never allocate unboundedly, and never leave the machine
// half-mutated — and the state of a stream it accepts must run. The
// corpus is seeded with real snapshots taken from the checked-in
// workload scenarios (plus deterministic faultinject corruptions of
// them), so the fuzzer starts deep inside the decode paths instead of
// bouncing off the magic-word check.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/gtlb"
	"repro/internal/guard"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/snap"
	"repro/internal/wgen"
)

// fuzzNodes is the fuzz target machine's mesh size. One node keeps the
// per-exec save/restore cost (and so the fuzzing throughput) reasonable
// while matching the checked-in 1-node scenarios (loopsync2, stencil7x2),
// whose snapshots pass the config-compatibility check and exercise the
// full per-chip decode; the 4-node scenarios seed the mismatch path.
const fuzzNodes = 1

// newFuzzTarget boots the machine corrupt streams are restored into: a
// default-config mesh with the runtime installed and a little execution
// history, so the pre-restore state is not trivially zero.
func newFuzzTarget() (*machine.Machine, []byte, error) {
	s, err := core.NewSim(core.Options{Nodes: fuzzNodes})
	if err != nil {
		return nil, nil, err
	}
	if err := s.LoadASM(0, 0, 0, "movi i1, #6\nmul i2, i1, #7\nhalt"); err != nil {
		return nil, nil, err
	}
	if _, err := s.M.Run(500); err != nil {
		return nil, nil, err
	}
	var base bytes.Buffer
	if err := s.M.Save(&base); err != nil {
		return nil, nil, err
	}
	return s.M, base.Bytes(), nil
}

// scenarioSnapshot runs a checked-in .wl scenario to completion and
// returns the finished machine's snapshot.
func scenarioSnapshot(f *testing.F, name string) []byte {
	sc, err := core.ScenarioFromFile("../../testdata/workloads/" + name)
	if err != nil {
		f.Fatal(err)
	}
	_, s, err := sc.RunSim(core.Options{})
	if err != nil {
		f.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := s.M.Save(&buf); err != nil {
		f.Fatalf("%s: save: %v", name, err)
	}
	return buf.Bytes()
}

// wgenSnapshot runs one generated scenario (internal/wgen, the same
// generator behind `msim -gen-seed`) and returns the finished machine's
// snapshot. Generated scenarios reach machine states the hand-written
// ones do not — user-mode threads holding guarded pointers, sweep
// staging machines — so their snapshots seed decode paths the scenario
// corpus alone would miss.
func wgenSnapshot(f *testing.F, seed uint64) []byte {
	name, src := wgen.Source(seed)
	sc, err := core.ScenarioFromDSL(name+".wl", src)
	if err != nil {
		f.Fatalf("seed %d: %v", seed, err)
	}
	_, s, err := sc.RunSim(core.Options{})
	if err != nil {
		f.Fatalf("seed %d: %v", seed, err)
	}
	var buf bytes.Buffer
	if err := s.M.Save(&buf); err != nil {
		f.Fatalf("seed %d: save: %v", seed, err)
	}
	return buf.Bytes()
}

// Byte layout the crafted streams below edit: the row state and
// statistics an SDRAM walks before its chunk count, and one page a chunk
// record lists (its words, pointer-tag words and sync words).
const (
	sdramHeader = 8 + 1 + 8 + 8
	pageRecord  = (mem.PageWords + 2*mem.PageWords/64) * 8
)

// restoredTarget returns a fuzz target holding base's state.
func restoredTarget(f *testing.F, base []byte) *machine.Machine {
	m, _, err := newFuzzTarget()
	if err != nil {
		f.Fatal(err)
	}
	if err := m.Restore(bytes.NewReader(base)); err != nil {
		f.Fatal(err)
	}
	return m
}

// sectionOf returns the bytes walk writes and their offset in base.
func sectionOf(f *testing.F, base []byte, walk func(*snap.Codec)) (int, []byte) {
	var b bytes.Buffer
	enc := snap.NewEncoder(&b)
	walk(enc)
	if err := enc.Flush(); err != nil {
		f.Fatal(err)
	}
	at := bytes.Index(base, b.Bytes())
	if at < 0 {
		f.Fatal("section not found in the baseline snapshot")
	}
	return at, b.Bytes()
}

// unorderedStreams returns a 1-node snapshot with node 0's first SDRAM
// chunk record, then its first cache line record, repeated: streams whose
// second index repeats the first. Each must fail to restore — the decoder
// would otherwise let the later record silently replace the earlier one.
func unorderedStreams(f *testing.F, base []byte) [][]byte {
	m := restoredTarget(f, base)
	defer m.Close()
	const (
		cacheHeader = 3 * 8                 // statistics
		lineRecord  = 8 + 3*8 + 2 + 8*8 + 8 // index, tag, block, base, flags, words, tags
	)
	// A chunk record is its index, its page mask and each listed page.
	chunkRecord := func(rec []byte) int {
		return 2*8 + bits.OnesCount64(binary.LittleEndian.Uint64(rec[8:]))*pageRecord
	}
	mm := m.Chips[0].Mem
	var out [][]byte
	for _, sec := range []struct {
		walk   func(*snap.Codec)
		header int
		size   func(rec []byte) int
	}{
		{mm.SDRAM.State, sdramHeader, chunkRecord},
		{mm.Cache.State, cacheHeader, func([]byte) int { return lineRecord }},
	} {
		at, old := sectionOf(f, base, sec.walk)
		n := binary.LittleEndian.Uint64(old[sec.header:])
		if n == 0 {
			f.Fatal("section of no records in the baseline snapshot")
		}
		body := old[sec.header+8:]
		dup := binary.LittleEndian.AppendUint64(bytes.Clone(old[:sec.header]), n+1)
		dup = append(append(dup, body[:sec.size(body)]...), body...)
		stream := append(append(bytes.Clone(base[:at]), dup...), base[at+len(old):]...)
		if err := m.Restore(bytes.NewReader(stream)); err == nil || !strings.Contains(err.Error(), "indices must increase") {
			f.Fatalf("a repeated record index: restore error %v, want increasing indices demanded", err)
		}
		out = append(out, stream)
	}
	return out
}

// maskStreams returns a 1-node snapshot with node 0's first SDRAM chunk
// record's page mask rewritten four ways: zero; naming page 16 of a
// 16-page chunk; listing one more page, inserted as all zeros; and
// listing every page, with the stream cut after the pages the record
// held. Each must fail to restore: Save never writes the first three, and
// the last claims pages the stream does not hold.
func maskStreams(f *testing.F, base []byte) [][]byte {
	m := restoredTarget(f, base)
	defer m.Close()
	at, old := sectionOf(f, base, m.Chips[0].Mem.SDRAM.State)
	maskAt := sdramHeader + 2*8 // past the chunk count and the first index
	mask := binary.LittleEndian.Uint64(old[maskAt:])
	free := bits.TrailingZeros64(^mask) // the first page the record omits
	if binary.LittleEndian.Uint64(old[sdramHeader:]) == 0 || free >= 16 {
		f.Fatalf("node 0's first chunk record (mask %#x) leaves no page to add", mask)
	}
	pages := old[maskAt+8:]
	held := bits.OnesCount64(mask) * pageRecord
	before := bits.OnesCount64(mask&(1<<free-1)) * pageRecord // listed pages ahead of page free
	section := func(mask uint64, body ...[]byte) []byte {
		return slices.Concat(append([][]byte{old[:maskAt], binary.LittleEndian.AppendUint64(nil, mask)}, body...)...)
	}
	tail := base[at+len(old):]
	var out [][]byte
	for _, c := range []struct {
		name, want string
		stream     []byte
	}{
		{"a zero mask", "lists no page", section(0, pages, tail)},
		{"mask bit 16", "names a page beyond", section(mask|1<<16, pages, tail)},
		{"an all-zero listed page", "listed but holds no data",
			section(mask|1<<free, pages[:before], make([]byte, pageRecord), pages[before:], tail)},
		{"more pages than the stream holds", "restore", section(0xffff, pages[:held])},
	} {
		stream := append(bytes.Clone(base[:at]), c.stream...)
		if err := m.Restore(bytes.NewReader(stream)); err == nil || !strings.Contains(err.Error(), c.want) {
			f.Fatalf("%s: restore error %v, want one containing %q", c.name, err, c.want)
		}
		out = append(out, stream)
	}
	return out
}

// threadStreams returns 1-node snapshots whose thread contexts are
// rewritten five ways Save never writes them: a program reference past
// the stream's program table; a new table entry repeating an earlier
// one; a register bank listing a zero register, tagging a register it
// does not list as a pointer, and naming register 16 of a 16-register
// bank. Each must fail to restore. Node 0's slot (v0, c0), the stream's
// first thread, runs a program (table entry 0); the empty slot after it,
// (v1, c0), carries markers: its stall count, which its program
// reference follows, and integer register 3, its only non-zero register,
// which its bank's masks and pointer-tag word precede.
func threadStreams(tb testing.TB) [][]byte {
	tb.Helper()
	const stallMark, regMark = 0x5eed_57a1_1c0c_0001, 0x5eed_4e61_57e4_0003
	s, err := core.NewSim(core.Options{Nodes: fuzzNodes})
	if err != nil {
		tb.Fatal(err)
	}
	defer s.M.Close()
	p, err := asm.Assemble("spin", "loop:\n    add i2, i2, #1\n    br loop\n")
	if err != nil {
		tb.Fatal(err)
	}
	s.LoadProgram(0, 0, 0, p, true)
	empty := s.M.Chips[0].Clusters[0].Threads[1]
	empty.StallCycles = stallMark
	empty.Ints.Set(3, isa.W(regMark))
	var b bytes.Buffer
	if err := s.M.Save(&b); err != nil {
		tb.Fatal(err)
	}
	base := b.Bytes()
	at := func(mark uint64) int {
		m := binary.LittleEndian.AppendUint64(nil, mark)
		if bytes.Count(base, m) != 1 {
			tb.Fatalf("marker %#x is not unique in the snapshot", mark)
		}
		return bytes.Index(base, m)
	}
	ref, reg := at(stallMark)+8, at(regMark)
	word := func(off int, v uint64) []byte {
		out := bytes.Clone(base)
		binary.LittleEndian.PutUint64(out[off:], v)
		return out
	}
	// The repeated entry: reference 2 (the next entry, index 1), then the
	// name and words of entry 0.
	var entry bytes.Buffer
	enc := snap.NewEncoder(&entry)
	name, words := p.Name, isa.EncodeProgram(p)
	enc.String(&name, len(name))
	enc.U64s(&words, len(words))
	if err := enc.Flush(); err != nil {
		tb.Fatal(err)
	}
	repeat := slices.Concat(base[:ref], binary.LittleEndian.AppendUint64(nil, 2), entry.Bytes(), base[ref+8:])
	masks := binary.LittleEndian.Uint64(base[reg-16:])
	var out [][]byte
	for _, c := range []struct {
		name, want string
		stream     []byte
	}{
		{"a program index past the table", "past a table", word(ref, 1<<40)},
		{"a repeated table entry", "repeats entry 0", repeat},
		{"a listed zero register", "lists register 3, which is zero", word(reg, 0)},
		{"a pointer tag outside the non-zero mask", "tags a zero register", word(reg-8, 1<<5)},
		{"a mask bit at the bank's count", "mask bit past", word(reg-16, masks|1<<(32+isa.NumIntRegs))},
	} {
		m, _, err := newFuzzTarget()
		if err != nil {
			tb.Fatal(err)
		}
		err = m.Restore(bytes.NewReader(c.stream))
		m.Close()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			tb.Fatalf("%s: restore error %v, want one containing %q", c.name, err, c.want)
		}
		out = append(out, c.stream)
	}
	return out
}

// emptiedLTLBOrder returns a 1-node snapshot whose node 0 LTLB keeps its
// entries but lists none of them in its replacement order: a decoder
// that accepted it would hand the chip an LTLB whose next eviction
// indexes an empty FIFO. It must fail to restore.
func emptiedLTLBOrder(f *testing.F, base []byte) []byte {
	m := restoredTarget(f, base)
	defer m.Close()
	at, old := sectionOf(f, base, m.Chips[0].Mem.LTLB.State)
	n := int(binary.LittleEndian.Uint64(old)) // entries, and so order slots
	if n == 0 {
		f.Fatal("LTLB section of no entries in the baseline snapshot")
	}
	tail := len(old) - 2*8 // the hit and miss counters
	section := binary.LittleEndian.AppendUint64(bytes.Clone(old[:tail-(n+1)*8]), 0)
	section = append(section, old[tail:]...)
	stream := append(append(bytes.Clone(base[:at]), section...), base[at+len(old):]...)
	if err := m.Restore(bytes.NewReader(stream)); err == nil || !strings.Contains(err.Error(), "LTLB order") {
		f.Fatalf("an LTLB with an empty order: restore error %v, want the order rejected", err)
	}
	return stream
}

// unrunnableStreams returns snapshots of the fuzz target's configuration
// holding state no engine can step, each with a thread spinning on node 0:
// node 0's clock ahead of the machine's, a program that writes a register
// in a fifth cluster, a GDT entry or a node 0 GTLB entry placing a page
// on a node outside the mesh, and a node 0 LTLB entry mapping a page
// outside SDRAM. A decoder that accepted them handed the run leg a
// machine that crashed on its first step (or on the first SEND or access
// through the bad entry); each must fail to restore.
func unrunnableStreams(tb testing.TB) [][]byte {
	tb.Helper()
	spin := "    movi i2, #3\nloop:\n    mov @1.i5, i2\n    br loop\n"
	offMesh := gtlb.Entry{VirtPage: 1 << 20, GroupPages: 1, Start: gtlb.NodeID{X: 5}, PagesPerNode: 1}
	var out [][]byte
	for _, spoil := range []func(s *core.Sim, p *isa.Program){
		func(s *core.Sim, p *isa.Program) { s.M.Chips[0].Cycle += 44 },
		func(s *core.Sim, p *isa.Program) { p.Insts[1].IOp.Dst.Cluster = isa.NumClusters },
		func(s *core.Sim, p *isa.Program) {
			if err := s.M.GDT.Add(offMesh); err != nil {
				tb.Fatal(err)
			}
		},
		func(s *core.Sim, p *isa.Program) {
			// Resident in node 0's GTLB only: the machine's GDT stays clean.
			gdt := &gtlb.Table{}
			if err := gdt.Add(offMesh); err != nil {
				tb.Fatal(err)
			}
			s.M.Chips[0].GTLB = gtlb.New(gdt, 1)
			if _, err := s.M.Chips[0].GTLB.Translate(offMesh.VirtPage * gtlb.GTLBPageWords); err != nil {
				tb.Fatal(err)
			}
		},
		func(s *core.Sim, p *isa.Program) {
			sdram := s.M.Chips[0].Mem.SDRAM.Size() / mem.PageWords
			s.M.Chips[0].Mem.LTLB.Insert(mem.PTE{VPN: 1 << 20, PPN: sdram, Valid: true})
		},
	} {
		s, err := core.NewSim(core.Options{Nodes: fuzzNodes})
		if err != nil {
			tb.Fatal(err)
		}
		p, err := asm.Assemble("spin", spin)
		if err != nil {
			tb.Fatal(err)
		}
		spoil(s, p)
		s.LoadProgram(0, 0, 0, p, true)
		var b bytes.Buffer
		if err := s.M.Save(&b); err != nil {
			tb.Fatal(err)
		}
		s.M.Close()
		out = append(out, b.Bytes())
	}
	return out
}

// TestRestoreRejectsUnrunnableState: a chip clock off the machine's, a
// program naming a register the machine lacks, a GDT or GTLB entry
// mapping pages to a node off the mesh and an LTLB entry mapping a page
// outside SDRAM are restore errors, not a crash on the restored machine.
func TestRestoreRejectsUnrunnableState(t *testing.T) {
	m, _, err := newFuzzTarget()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i, stream := range unrunnableStreams(t) {
		if err := m.Restore(bytes.NewReader(stream)); err == nil {
			t.Errorf("stream %d restored; want it rejected", i)
		} else if !strings.Contains(err.Error(), "restore") {
			t.Errorf("stream %d: undescriptive restore error %q", i, err)
		}
	}
}

// runAccepted is FuzzSnapshotDecode's run leg: decoded state must run.
// A stream accepted by a machine of configuration cfg, restored into a
// fresh machine of it, runs 1000 cycles under supervision to completion,
// a cutoff or a classified failure, never a contained panic (ClassCrash).
func runAccepted(t *testing.T, cfg machine.Config, data []byte) {
	m := machine.New(cfg)
	defer m.Close()
	if err := m.Restore(bytes.NewReader(data)); err != nil {
		t.Fatalf("accepted stream does not restore into its own configuration: %v", err)
	}
	_, err := guard.New(m, guard.Options{Timeout: 10 * time.Second}).Run(1000)
	if guard.Classify(err) == guard.ClassCrash {
		var f *guard.Failure
		if errors.As(err, &f) {
			t.Fatalf("restored state crashed: %v\n%s", err, f.Stack)
		}
		t.Fatalf("restored state crashed: %v", err)
	}
}

// Per-worker-process fuzz state: the target machine is built lazily on
// the first execution and reset to its baseline after every accepted
// stream, so executions are independent. fuzzBefore caches the target's
// current serialized state (it only changes when a stream is accepted),
// halving the per-exec save cost; a failed Restore that mutated the
// machine still trips the comparison, just possibly one exec later.
var (
	fuzzTarget   *machine.Machine
	fuzzBaseline []byte
	fuzzBefore   []byte
)

func FuzzSnapshotDecode(f *testing.F) {
	// Seed corpus: real snapshots from the checked-in scenarios, the
	// target's own baseline, deterministic corruptions of a matching
	// snapshot, and a couple of header-path probes.
	_, base, err := newFuzzTarget()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(base)
	f.Add(scenarioSnapshot(f, "loopsync2.wl")) // mesh 1: full decode path
	stencil := scenarioSnapshot(f, "stencil7x2.wl")
	f.Add(stencil) // mesh 1: full decode path
	for _, crafted := range slices.Concat(unorderedStreams(f, stencil), maskStreams(f, stencil), threadStreams(f)) {
		f.Add(crafted)
	}
	f.Add(emptiedLTLBOrder(f, stencil))
	for _, crashed := range unrunnableStreams(f) {
		f.Add(crashed)
	}
	f.Add(scenarioSnapshot(f, "ringreduce.wl")) // mesh 4: dims-mismatch path
	f.Add(wgenSnapshot(f, 0))                   // generated, mesh 1: user-mode state
	f.Add(wgenSnapshot(f, 5))                   // generated, mesh 4 sweep: staging machine
	c := faultinject.NewCorrupter(0x5eed)
	f.Add(c.Truncate(base))
	f.Add(c.FlipBit(base))
	f.Add(c.Scramble(base))
	f.Add(base[:16])          // magic + version only
	f.Add([]byte("MSIMSNAP")) // ASCII lookalike, not the little-endian magic
	f.Add([]byte{})
	// Oversized-length probes: a valid prefix cut at assorted depths,
	// followed by a maximal 64-bit word where the next length field would
	// be. Each lands the decoder on some count/length read claiming far
	// more data than the stream holds, pinning snap's capped-allocation
	// path (a descriptive error, never a giant make()).
	huge := bytes.Repeat([]byte{0xff}, 8)
	for _, cut := range []int{24, 264, len(base) / 4, len(base) / 2, len(base) - 9} {
		if cut > 0 && cut < len(base) {
			f.Add(append(append([]byte{}, base[:cut]...), huge...))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if fuzzTarget == nil {
			m, baseline, err := newFuzzTarget()
			if err != nil {
				t.Fatal(err)
			}
			fuzzTarget, fuzzBaseline, fuzzBefore = m, baseline, baseline
		}
		m := fuzzTarget

		if err := m.Restore(bytes.NewReader(data)); err != nil {
			// Rejected: the error must say something, and the machine must
			// be bit-identical to its pre-restore state (proved by
			// re-serializing it).
			if msg := err.Error(); msg == "" || !strings.Contains(msg, "restore") {
				t.Fatalf("undescriptive restore error: %q", msg)
			}
			var after bytes.Buffer
			if err := m.Save(&after); err != nil {
				t.Fatalf("save after failed restore: %v", err)
			}
			if !bytes.Equal(fuzzBefore, after.Bytes()) {
				t.Fatal("failed Restore left the machine half-mutated")
			}
			return
		}

		// Accepted: whatever state was adopted must round-trip through
		// save/restore — an accepted stream is a valid checkpoint.
		var again bytes.Buffer
		if err := m.Save(&again); err != nil {
			t.Fatalf("save after accepted restore: %v", err)
		}
		if err := m.Restore(bytes.NewReader(again.Bytes())); err != nil {
			t.Fatalf("accepted stream does not round-trip: %v", err)
		}
		runAccepted(t, m.Cfg, data)
		if err := m.Restore(bytes.NewReader(fuzzBaseline)); err != nil {
			t.Fatalf("baseline reset: %v", err)
		}
		fuzzBefore = fuzzBaseline
	})
}

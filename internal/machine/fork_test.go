package machine_test

// Fork regression beyond TestSnapshotFork: machines that share SDRAM
// chunks copy-on-write run concurrently without synchronization, a
// Restore drops the sharing, and Save's allocation count does not grow
// with the state it encodes. Clone ≡ Restore(Save) across engines is
// pinned in internal/core (TestSimForkMatchesRestore), where the
// scenario and Table 1 staging machinery lives.

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
)

// TestForkConcurrent: a parent and its children (and a grandchild), all
// forked mid-run with shared chunks, finish their runs on separate
// goroutines and land on one fingerprint and one digest. Under -race
// (make race) any write to a shared chunk is a report.
func TestForkConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent fork stress runs in make race's non-short leg")
	}
	for _, mode := range []snapMode{snapModes[1], snapModes[2]} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			parent := buildSnapWorkload(t, mode)
			stepN(parent, 1500)
			machines := []*machine.Machine{parent}
			for i := 0; i < 2; i++ {
				f, err := parent.Fork()
				if err != nil {
					t.Fatal(err)
				}
				machines = append(machines, f)
			}
			g, err := machines[1].Fork()
			if err != nil {
				t.Fatal(err)
			}
			machines = append(machines, g)

			fps := make([]string, len(machines))
			var wg sync.WaitGroup
			for i, m := range machines {
				wg.Add(1)
				go func(i int, m *machine.Machine) {
					defer wg.Done()
					defer m.Close()
					ran, err := m.Run(500000)
					if err != nil {
						t.Errorf("machine %d: %v", i, err)
						return
					}
					digest, err := m.Digest()
					if err != nil {
						t.Errorf("machine %d: %v", i, err)
						return
					}
					fps[i] = snapFingerprint(t, m, ran) + digest
				}(i, m)
			}
			wg.Wait()
			for i := 1; i < len(fps); i++ {
				if fps[i] != fps[0] {
					t.Errorf("machine %d diverged from the parent:\n%.1200s\nvs\n%.1200s", i, fps[i], fps[0])
				}
			}
		})
	}
}

// TestForkRestoreUnaliases: a child restored from an unrelated snapshot
// takes that snapshot's memory — the decoded SDRAMs own every chunk, and
// the chips that shared chunks with the parent are gone — so from then on
// each side's writes (word, pointer tag, synchronization bit) land on its
// own side only.
func TestForkRestoreUnaliases(t *testing.T) {
	parent := buildSnapWorkload(t, snapModes[1])
	defer parent.Close()
	stepN(parent, 1500)
	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer child.Close()

	// The unrelated snapshot: the same workload at boot.
	other := buildSnapWorkload(t, snapModes[1])
	defer other.Close()
	var buf bytes.Buffer
	if err := other.Save(&buf); err != nil {
		t.Fatal(err)
	}
	wantDigest, err := other.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if got, _ := child.Digest(); got != wantDigest {
		t.Fatalf("restored child digest %s, want the snapshot's %s", got, wantDigest)
	}

	parentBefore, err := parent.Digest()
	if err != nil {
		t.Fatal(err)
	}
	// Physical writes on the child into chunks the parent materialized.
	scratch := machine.ScratchBase(child.Cfg.Chip.Mem)
	for node := 0; node < child.NumNodes(); node++ {
		child.Chip(node).Mem.SDRAM.Write(scratch+200, 0xdead, true)
		child.Chip(node).Mem.SDRAM.SetSyncBit(scratch+200, true)
	}
	if got, _ := parent.Digest(); got != parentBefore {
		t.Error("writes to a restored child changed the parent's state")
	}
	childBefore, _ := child.Digest()
	for node := 0; node < parent.NumNodes(); node++ {
		parent.Chip(node).Mem.SDRAM.Write(scratch+200, 0xbeef, false)
	}
	if got, _ := child.Digest(); got != childBefore {
		t.Error("writes to the parent changed a restored child's state")
	}
	for node := 0; node < child.NumNodes(); node++ {
		cs, ps := child.Chip(node).Mem.SDRAM, parent.Chip(node).Mem.SDRAM
		if w, ptr := cs.Read(scratch + 200); w != 0xdead || !ptr || !cs.SyncBit(scratch+200) {
			t.Errorf("node %d: restored child reads (%#x, ptr %v, sync %v), want its own (0xdead, true, true)",
				node, w, ptr, cs.SyncBit(scratch+200))
		}
		if w, ptr := ps.Read(scratch + 200); w != 0xbeef || ptr || ps.SyncBit(scratch+200) {
			t.Errorf("node %d: parent reads (%#x, ptr %v, sync %v), want its own (0xbeef, false, false)",
				node, w, ptr, ps.SyncBit(scratch+200))
		}
	}
}

// TestSaveAllocsConstant: a Save of a machine allocates for its stream
// writer and once per distinct program, and for nothing that scales with
// the encoded state: filling every cache line and materializing more
// SDRAM chunks leaves the count where it was.
func TestSaveAllocsConstant(t *testing.T) {
	m := buildSnapWorkload(t, snapModes[1])
	defer m.Close()
	stepN(m, 1500)
	saveAllocs := func() float64 {
		return testing.AllocsPerRun(5, func() {
			if err := m.Save(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	before := saveAllocs()

	var size bytes.Buffer
	if err := m.Save(&size); err != nil {
		t.Fatal(err)
	}
	small := size.Len()
	for node := 0; node < m.NumNodes(); node++ {
		sys := m.Chip(node).Mem
		for i := 0; i < sys.Config().Cache.Lines; i++ {
			sys.Cache.Fill(sys.SDRAM, uint64(i)*mem.BlockWords, uint64(i)*mem.BlockWords, true)
		}
		for pa := uint64(0); pa < sys.SDRAM.Size(); pa += sys.SDRAM.Size() / 16 {
			sys.SDRAM.Write(pa, pa, false)
		}
	}
	size.Reset()
	if err := m.Save(&size); err != nil {
		t.Fatal(err)
	}
	if size.Len() < 4*small {
		t.Fatalf("growing the machine state grew the snapshot only from %d to %d bytes", small, size.Len())
	}

	after := saveAllocs()
	if after > before {
		t.Errorf("Save allocates %v times on the grown machine, %v before: allocations scale with state", after, before)
	}
	if before > 200 {
		t.Errorf("Save of a 4-node machine allocates %v times, want a small constant", before)
	}
}

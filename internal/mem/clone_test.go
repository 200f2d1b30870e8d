package mem

// Clone tests (DESIGN.md, "Checkpoint/restore"): SDRAM chunks shared
// copy-on-write stay private to whoever writes them — words, pointer
// tags and synchronization bits alike — the sharing needs no
// synchronization when the sides run on different goroutines, and the
// encode paths a Save is made of do not allocate. That a Restore drops
// every alias is pinned on whole machines (machine.TestForkRestoreUnaliases).

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/snap"
)

// cowAddrs are physical addresses in two chunks: the first two share a
// chunk (and a sync/pointer bitmap word), the third sits in another.
var cowAddrs = []uint64{100, 101, chunkWords*3 + 7}

// cowFill writes a side's own pattern over cowAddrs: word value, pointer
// tag and sync bit all depend on id.
func cowFill(s *SDRAM, id uint64) {
	for i, pa := range cowAddrs {
		s.Write(pa, id*1000+uint64(i), (id+uint64(i))%2 == 0)
		s.SetSyncBit(pa, (id+uint64(i))%3 == 0)
	}
}

func cowCheck(t *testing.T, name string, s *SDRAM, id uint64) {
	t.Helper()
	for i, pa := range cowAddrs {
		w, ptr := s.Read(pa)
		wantW, wantPtr, wantSync := id*1000+uint64(i), (id+uint64(i))%2 == 0, (id+uint64(i))%3 == 0
		if w != wantW || ptr != wantPtr || s.SyncBit(pa) != wantSync {
			t.Errorf("%s: pa %d = (%d, ptr %v, sync %v), want (%d, ptr %v, sync %v)",
				name, pa, w, ptr, s.SyncBit(pa), wantW, wantPtr, wantSync)
		}
	}
}

// TestCloneCopyOnWrite: a parent and two children write the same words,
// pointer tags and sync bits of shared chunks to different values; each
// sees only its own, and the words nobody rewrote still read the
// pre-fork value on every side.
func TestCloneCopyOnWrite(t *testing.T) {
	const untouched = 4242 // same chunk as cowAddrs[0], never rewritten
	p := NewSDRAM(DefaultSDRAMConfig())
	cowFill(p, 9)
	p.Write(untouched, 77, true)
	p.SetSyncBit(untouched, true)

	c1, c2 := p.Clone(), p.Clone()
	for _, s := range []*SDRAM{p, c1, c2} {
		cowCheck(t, "at the fork", s, 9)
	}
	if c1.chunks[0] != p.chunks[0] || c2.chunks[0] != p.chunks[0] {
		t.Fatal("clones do not share the parent's chunk: Clone copied it")
	}

	cowFill(c1, 1)
	cowFill(p, 2)
	cowFill(c2, 3)
	// A chunk untouched at the fork materializes privately.
	c1.Write(chunkWords*5, 55, false)

	cowCheck(t, "child 1", c1, 1)
	cowCheck(t, "parent", p, 2)
	cowCheck(t, "child 2", c2, 3)
	for name, s := range map[string]*SDRAM{"parent": p, "child 1": c1, "child 2": c2} {
		if w, ptr := s.Read(untouched); w != 77 || !ptr || !s.SyncBit(untouched) {
			t.Errorf("%s: the word nobody rewrote reads (%d, ptr %v, sync %v), want (77, true, true)",
				name, w, ptr, s.SyncBit(untouched))
		}
	}
	if w, _ := p.Read(chunkWords * 5); w != 0 {
		t.Errorf("parent sees child 1's write to fresh memory: %d", w)
	}
	// One copy per written chunk per side, then the chunk is owned.
	own := c1.chunks[0]
	c1.Write(cowAddrs[1], 1, false)
	if c1.chunks[0] != own {
		t.Error("a second write to an owned chunk copied it again")
	}
}

// TestForkConcurrentSDRAM: parent and children hammer the shared chunks
// from separate goroutines; run under -race (make race), any write to a
// shared chunk, or any unsynchronized ownership state, is a report.
func TestForkConcurrentSDRAM(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent fork stress runs in make race's non-short leg")
	}
	p := NewSDRAM(DefaultSDRAMConfig())
	for pa := uint64(0); pa < 4*chunkWords; pa += 97 {
		p.Write(pa, pa, pa%2 == 0)
	}
	sides := []*SDRAM{p}
	for i := 0; i < 3; i++ {
		sides = append(sides, p.Clone())
	}
	// A grandchild forked from a child: sharing is transitive.
	sides = append(sides, sides[1].Clone())

	var wg sync.WaitGroup
	for id, s := range sides {
		wg.Add(1)
		go func(id uint64, s *SDRAM) {
			defer wg.Done()
			for round := uint64(0); round < 50; round++ {
				for pa := uint64(0); pa < 4*chunkWords; pa += 97 {
					if w, _ := s.Read(pa); round == 0 && w != pa {
						t.Errorf("side %d: pa %d reads %d before any write, want %d", id, pa, w, pa)
						return
					}
					s.Write(pa, id<<32|round, false)
					s.SetSyncBit(pa, round%2 == 0)
				}
			}
			for pa := uint64(0); pa < 4*chunkWords; pa += 97 {
				if w, _ := s.Read(pa); w != id<<32|49 {
					t.Errorf("side %d: pa %d ends at %#x, want %#x", id, pa, w, id<<32|49)
					return
				}
			}
		}(uint64(id), s)
	}
	wg.Wait()
}

// TestCacheEncodeNoAllocs: encoding a full cache into a sink that has
// already grown allocates nothing — no per-Bool, per-line or per-word
// garbage however many lines are valid.
func TestCacheEncodeNoAllocs(t *testing.T) {
	c := NewCache(DefaultCacheConfig())
	s := NewSDRAM(DefaultSDRAMConfig())
	for i := 0; i < c.cfg.Lines; i++ {
		c.Fill(s, uint64(i)*BlockWords, uint64(i)*BlockWords, true)
	}
	var sink bytes.Buffer
	w := snap.NewWriter(&sink)
	allocs := testing.AllocsPerRun(5, func() {
		sink.Reset()
		c.EncodeState(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Cache.EncodeState of %d valid lines: %v allocs per run, want 0", c.cfg.Lines, allocs)
	}
	if sink.Len() < c.cfg.Lines*BlockWords*8 {
		t.Fatalf("encoded only %d bytes for %d lines", sink.Len(), c.cfg.Lines)
	}
}

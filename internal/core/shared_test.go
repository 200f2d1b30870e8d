package core_test

import (
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/rt"
)

// TestSharedProgramsConcurrentLoad: machines booted on separate
// goroutines load the same runtime handler programs and the same
// assembled user program — objects none of them has loaded before — so
// the programs' first loads, which fill their issue summaries, race each
// other. They must not (the race leg of make ci runs this under -race),
// and every machine must end with the same digest.
func TestSharedProgramsConcurrentLoad(t *testing.T) {
	// A memory configuration no other test boots, so the runtime below is
	// assembled here and its programs are fresh.
	cfg := chip.DefaultConfig()
	cfg.Mem.LineLoadLat++
	if _, err := rt.New(cfg.Mem, rt.Options{}); err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Nodes: 2, Chip: &cfg}
	// Node 1's home words start at 4096: four home pages of 1024 words
	// per node, the default mapping.
	prog, err := asm.Assemble("shared", `
    movi i1, #4104
    ld i2, [i1]
    add i3, i2, #1
    st [i1], i3
    ld i4, [i1]
    halt
`)
	if err != nil {
		t.Fatal(err)
	}

	const machines = 4
	digests := make([]string, machines)
	var wg sync.WaitGroup
	for i := range digests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := core.NewSim(opts)
			if err != nil {
				t.Error(err)
				return
			}
			defer s.M.Close()
			s.LoadProgram(0, 0, 0, prog, true)
			if _, err := s.Run(100_000); err != nil {
				t.Error(err)
				return
			}
			if got := s.Reg(0, 0, 0, 4); got != 1 {
				t.Errorf("machine %d read back %d from node 1, want 1", i, got)
			}
			if digests[i], err = s.M.Digest(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, d := range digests {
		if d != digests[0] {
			t.Errorf("machine %d digest %s, machine 0 %s", i, d, digests[0])
		}
	}
}

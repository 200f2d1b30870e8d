// Remotemem: transparent access to remote memory (Section 4.2). An
// unmodified program on node 0 loads and stores addresses homed on node 1;
// LTLB misses trap to software, which converts them into messages, all
// invisibly to the program. The example prints the resulting Figure 9-style
// event timeline and then repeats the run with caching enabled
// (Section 4.3) to show the block being migrated into local DRAM.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
)

func main() {
	fmt.Println("-- non-cached remote access (Section 4.2) --")
	runOnce(false)
	fmt.Println()
	fmt.Println("-- with caching in local DRAM (Section 4.3) --")
	runOnce(true)
}

func runOnce(caching bool) {
	sim, err := core.NewSim(core.Options{Nodes: 2, Caching: caching})
	if err != nil {
		log.Fatal(err)
	}
	remote := sim.HomeBase(1) + 8

	// Stage a value at its home node.
	if err := sim.LoadASM(1, 0, 0, fmt.Sprintf(`
    movi i1, #%d
    movi i2, #1234
    st [i1], i2
    halt
`, remote)); err != nil {
		log.Fatal(err)
	}
	if _, err := sim.Run(100_000); err != nil {
		log.Fatal(err)
	}

	// Node 0 dereferences the remote address like any other: the program
	// contains only ordinary loads and stores.
	sim.Recorder.Reset()
	if err := sim.LoadASM(0, 0, 0, fmt.Sprintf(`
    movi i1, #%d
    ld  i2, [i1]            ; remote load
    add i3, i2, #1
    st [i1+1], i3           ; remote store
    ld  i4, [i1+1]          ; second access: local if caching is on
    halt
`, remote)); err != nil {
		log.Fatal(err)
	}
	cycles, err := sim.Run(500_000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("node 0 read %d, wrote back %d in %d cycles\n",
		sim.Reg(0, 0, 0, 2), sim.Reg(0, 0, 0, 4), cycles)
	if w, err := sim.Peek(1, remote+1); err == nil {
		if caching {
			// With caching the store dirtied node 0's local copy of the
			// block (status DIRTY, Section 4.3); writing it back to the
			// home is a software coherence policy decision, so the home
			// still holds the old value here.
			fmt.Printf("home node still sees %d at %#x (dirty copy lives on node 0, status %v)\n",
				w, remote+1, sim.M.Chip(0).Mem.BlockStatusOf(remote+1))
		} else {
			fmt.Printf("home node sees %d at %#x\n", w, remote+1)
		}
	}
	st := sim.Stats()
	fmt.Printf("LTLB faults %d, status faults %d, messages %d\n",
		st.LTLBFaults, st.StatusFaults, st.MsgsInjected)

	fmt.Println("event timeline:")
	fmt.Print(sim.Recorder.Timeline(sim.Recorder.Filter(0,
		"mem-issue", "event", "send", "msg-recv", "rstw", "mretry", "tlbw")))
}

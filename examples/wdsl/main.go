// Wdsl: the declarative workload DSL from Go. Compiles an embedded .wl
// scenario — a two-node ping-pong over synchronizing memory — and runs
// it under both the event engine and the naive reference loop,
// demonstrating that a scenario is a simulated result: the cycle counts
// are bit-identical whichever engine executes it. See docs/wdsl.md for
// the language reference and testdata/workloads/ for larger scenarios.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
)

const scenario = `
; Two nodes ping-pong a counter through sync-bit stores: node 0 sends
; through the remote-write-sync dispatch pointer, node 1 waits on its
; mailbox word with ldsy.fe, increments, and sends it back.
workload "two-node ping-pong over sync bits"
mesh 2
const MB     64            ; mailbox word offset in each node's home range
const ROUNDS 8

program touch
    movi i1, #{home(node)+MB}
    movi i2, #0
    st [i1], i2
    halt
end

program ping
    movi i2, #{dipsync}
    movi i9, #0                ; last pong value
repeat r = 1 .. ROUNDS
    add i8, i9, #1             ; payload = last pong + 1
    movi i1, #{home(1)+MB}
    send i1, i2, i8, #1
    movi i4, #{home(0)+MB}
    ldsy.fe i9, [i4]           ; wait for the reply
end
    halt
end

program pong
    movi i2, #{dipsync}
repeat r = 1 .. ROUNDS
    movi i4, #{home(1)+MB}
    ldsy.fe i5, [i4]
    add i5, i5, #1
    movi i1, #{home(0)+MB}
    send i1, i2, i5, #1
end
    halt
end

phase touch
load touch on all vthread=3 cluster=3
run 100000

phase pingpong
load ping on node 0
load pong on node 1
run 200000

; Each round adds 2 (ping increments, pong increments back).
expect reg node=0 reg=9 value=2*ROUNDS
`

func main() {
	sc, err := core.ScenarioFromDSL("pingpong.wl", scenario)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario: %s\n\n", sc.Title())

	engines := []struct {
		name string
		opts core.Options
	}{
		{"event engine", core.Options{}},
		{"naive reference loop", core.Options{NaiveEngine: true}},
	}
	var ref *core.ScenarioResult
	for _, e := range engines {
		res, err := sc.Run(e.opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", e.name)
		for _, ph := range res.Phases {
			fmt.Printf("  phase %-10s %7d cycles\n", ph.Name, ph.Cycles)
		}
		fmt.Printf("  %-16s %7d cycles, %d expectation(s) verified\n",
			"total", res.TotalCycles, res.Checks)
		if ref == nil {
			ref = res
		} else if res.TotalCycles != ref.TotalCycles {
			log.Fatalf("engines diverged: %d vs %d cycles", res.TotalCycles, ref.TotalCycles)
		}
	}
	fmt.Println("\nboth engines agree bit-for-bit — a scenario is a simulated")
	fmt.Println("result, independent of how the host executes it.")
}

// Bigmesh: the simulator at machine scale. The paper measures a two-node
// setup; the mesh, GTLB, and runtime support arbitrary 3-D meshes, and the
// parallel simulation engine (core.Options.Workers) shards each busy
// cycle's chip phase across host cores so large meshes stay tractable.
//
// This example runs two all-node workloads on 4x4x2 (32-node) and 8x8x2
// (128-node) meshes:
//
//   - a block-distributed grid smoothing pass with remote halo reads
//     (compute-heavy, mostly local), verified element-by-element;
//   - a neighbour message storm — every node streams remote stores into
//     its successor's mailbox through the SEND datapath (network-heavy),
//     verified word-by-word.
//
// Each workload runs under the serial event engine and the parallel
// engine; simulated cycle counts are bit-identical by design (the
// determinism contract), while host wall time drops with available cores.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/workload"
)

const gridTotal = 2048

func main() {
	fmt.Printf("parallel simulation engine demo (GOMAXPROCS=%d)\n\n", runtime.GOMAXPROCS(0))
	for _, dims := range []noc.Coord{{X: 4, Y: 4, Z: 2}, {X: 8, Y: 8, Z: 2}} {
		nodes := dims.X * dims.Y * dims.Z
		fmt.Printf("=== %dx%dx%d mesh (%d nodes) ===\n", dims.X, dims.Y, dims.Z, nodes)
		for _, eng := range []struct {
			name    string
			workers int
		}{{"serial  ", 1}, {"parallel", -1}} {
			sc, sw := runSmooth(dims, eng.workers)
			fmt.Printf("  smooth   %s  %8d cycles  %10v wall\n", eng.name, sc, sw.Round(time.Millisecond))
			mc, mw := runStorm(dims, eng.workers)
			fmt.Printf("  msgstorm %s  %8d cycles  %10v wall\n", eng.name, mc, mw.Round(time.Millisecond))
		}
		fmt.Println()
	}
	fmt.Println("Simulated cycle counts are identical under both engines — the")
	fmt.Println("parallel engine's outbox drain and per-cycle barrier preserve the")
	fmt.Println("serial injection order bit-for-bit (DESIGN.md, \"The cycle engine\" →")
	fmt.Println("\"The pool is a transport\"); only host wall time changes with available cores.")
}

// runSmooth runs the verified grid smoothing pass and returns simulated
// cycles of the smoothing phase and host wall time of the whole run.
func runSmooth(dims noc.Coord, workers int) (int64, time.Duration) {
	nodes := dims.X * dims.Y * dims.Z
	g, err := workload.NewMeshSmooth(nodes, gridTotal)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	s, err := core.NewSim(core.Options{Dims: dims, Workers: workers})
	if err != nil {
		log.Fatal(err)
	}
	defer s.M.Close()
	for n := 0; n < nodes; n++ {
		if err := s.LoadASM(n, 3, 3, g.StageSrc(n, s.HomeBase)); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := s.Run(5_000_000); err != nil {
		log.Fatal(err)
	}
	for n := 0; n < nodes; n++ {
		if err := s.LoadASM(n, 0, 0, g.WorkerSrc(n, s.HomeBase)); err != nil {
			log.Fatal(err)
		}
	}
	cycles, err := s.Run(10_000_000)
	if err != nil {
		log.Fatal(err)
	}
	for j := 1; j < g.Total()-1; j++ {
		got, err := s.Peek(j/g.Chunk, g.VAddr(s.HomeBase, j))
		if err != nil || got != g.Want(j) {
			log.Fatalf("v[%d] = %d (err %v), want %d", j, got, err, g.Want(j))
		}
	}
	return cycles, time.Since(start)
}

// runStorm runs the verified neighbour message storm.
func runStorm(dims noc.Coord, workers int) (int64, time.Duration) {
	const msgs = 24
	nodes := dims.X * dims.Y * dims.Z
	start := time.Now()
	s, err := core.NewSim(core.Options{Dims: dims, Workers: workers})
	if err != nil {
		log.Fatal(err)
	}
	defer s.M.Close()
	for n := 0; n < nodes; n++ {
		src := workload.NeighborExchangeSrc(n, nodes, msgs, s.RT.DIPRemoteWrite, s.HomeBase)
		if err := s.LoadASM(n, 0, 0, src); err != nil {
			log.Fatal(err)
		}
	}
	cycles, err := s.Run(10_000_000)
	if err != nil {
		log.Fatal(err)
	}
	for n := 0; n < nodes; n++ {
		for w := 0; w < msgs; w++ {
			addr := workload.NeighborExchangeAddr(s.HomeBase, n, w)
			got, err := s.Peek(n, addr)
			if err != nil || got != addr {
				log.Fatalf("mailbox %d.%d = %d (err %v), want %d", n, w, got, err, addr)
			}
		}
	}
	return cycles, time.Since(start)
}

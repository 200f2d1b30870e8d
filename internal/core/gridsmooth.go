package core

// Grid smoothing at machine scale: the application story of the paper's
// introduction ("nodes are designed to manage parallelism from the
// instruction level to the process level... collaborating threads reside on
// different nodes"). A 1-D grid is block-distributed across nodes; each
// node smooths its own chunk (v[j] = u[j-1] + u[j] + u[j+1]) with purely
// local accesses in the interior and transparent remote accesses for the
// halo elements at chunk boundaries. Scaling the node count shrinks each
// node's chunk while the flat shared address space keeps the program
// unchanged except for its loop bounds. The program generators live in
// internal/workload (MeshSmooth), shared with the large-mesh scaling
// experiment (`mbench -exp meshscale`).

import (
	"fmt"

	"repro/internal/noc"
	"repro/internal/workload"
)

// expGridSmooth runs the distributed smoothing pass over a 512-element
// grid on 1-, 2- and 4-node machines (E13).
func expGridSmooth(s *sheet) error {
	dims := []noc.Coord{{X: 1, Y: 1, Z: 1}, {X: 2, Y: 1, Z: 1}, {X: 4, Y: 1, Z: 1}}
	cycles, err := smoothCycles(512, dims)
	if err != nil {
		return err
	}
	s.printf("512-element grid smoothing, block-distributed\n")
	s.printf("%-6s %10s %9s\n", "nodes", "cycles", "speedup")
	for i, d := range dims {
		s.printf("%-6d %10d %8.2fx\n", d.X, cycles[i], float64(cycles[0])/float64(cycles[i]))
		s.cycles(fmt.Sprintf("smooth_nodes%d", d.X), cycles[i])
	}
	return nil
}

// expMeshScale runs the smoothing pass over a fixed 2048-element grid on
// progressively larger 3-D meshes, up to 4x4x2 and 8x8x2 (E14). Larger
// meshes also mean a smaller busy fraction per cycle (the fixed grid
// spreads thinner), which is the mix the engine's due-set is for (see
// DESIGN.md, "The due-set"). The point of the sweep is that larger meshes
// finish the same grid in fewer simulated cycles.
func expMeshScale(s *sheet) error {
	dims := []noc.Coord{{X: 2, Y: 1, Z: 1}, {X: 4, Y: 2, Z: 1}, {X: 4, Y: 4, Z: 2}, {X: 8, Y: 8, Z: 2}}
	cycles, err := smoothCycles(2048, dims)
	if err != nil {
		return err
	}
	s.printf("2048-element grid smoothing on 3-D meshes\n")
	s.printf("%-8s %6s %10s %9s\n", "mesh", "nodes", "cycles", "speedup")
	for i, d := range dims {
		s.printf("%dx%dx%d   %6d %10d %8.2fx\n",
			d.X, d.Y, d.Z, d.X*d.Y*d.Z, cycles[i], float64(cycles[0])/float64(cycles[i]))
		s.cycles(fmt.Sprintf("smooth_mesh%dx%dx%d", d.X, d.Y, d.Z), cycles[i])
	}
	return nil
}

// smoothCycles runs the smoothing pass over a total-element grid on each
// mesh shape, one fresh machine each, and returns each pass's cycles.
func smoothCycles(total int, dims []noc.Coord) ([]int64, error) {
	out := make([]int64, len(dims))
	for i, d := range dims {
		g, err := workload.NewMeshSmooth(d.X*d.Y*d.Z, total)
		if err != nil {
			return nil, err
		}
		_, _, cycles, err := runMeshSmooth(Options{Dims: d}, g)
		if err != nil {
			return nil, fmt.Errorf("mesh smooth on %v: %w", d, err)
		}
		out[i] = cycles
	}
	return out, nil
}

// runMeshSmooth boots a machine with the given options, stages the grid,
// runs the smoothing pass, and verifies every output element against the
// host-computed reference. It returns the machine and the cycles of the
// staging and smoothing runs.
func runMeshSmooth(o Options, g *workload.MeshSmooth) (s *Sim, stage, smooth int64, err error) {
	s, err = NewSim(o)
	if err != nil {
		return nil, 0, 0, err
	}
	if n := s.M.NumNodes(); n != g.Nodes {
		return nil, 0, 0, fmt.Errorf("mesh smooth: %d-node workload on %d-node machine", g.Nodes, n)
	}
	for n := 0; n < g.Nodes; n++ {
		if err := s.LoadASM(n, 3, 3, g.StageSrc(n, s.HomeBase)); err != nil {
			return nil, 0, 0, err
		}
	}
	if stage, err = s.Run(5_000_000); err != nil {
		return nil, 0, 0, err
	}
	for n := 0; n < g.Nodes; n++ {
		if err := s.LoadASM(n, 0, 0, g.WorkerSrc(n, s.HomeBase)); err != nil {
			return nil, 0, 0, err
		}
	}
	if smooth, err = s.Run(10_000_000); err != nil {
		return nil, 0, 0, err
	}
	for j := 1; j < g.Total()-1; j++ {
		got, err := s.Peek(j/g.Chunk, g.VAddr(s.HomeBase, j))
		if err != nil {
			return nil, 0, 0, fmt.Errorf("v[%d]: %w", j, err)
		}
		if got != g.Want(j) {
			return nil, 0, 0, fmt.Errorf("v[%d] = %d, want %d", j, got, g.Want(j))
		}
	}
	return s, stage, smooth, nil
}
